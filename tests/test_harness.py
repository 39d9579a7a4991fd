import numpy as np
import pytest

from grlstab import bounds, graphs, sampling
from grlstab.harness import (ClosedFormGnnAlgorithm, ConstantAlgorithm,
                             NonDeterministicAlgorithmError, SgdAlgorithm,
                             estimate_generalization_gap, estimate_mu,
                             estimate_stability, estimate_vertex_stability,
                             exact_risk, exhaustive_binary_stability,
                             multi_replacement_shift)
from grlstab.objectives import QuadraticFieldObjective
from grlstab.sgd import SgdConfig


def make_setup(n=6, steps=40, alpha=0.1, seed=100, w_radius=1.0):
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, w_radius)
    alg = SgdAlgorithm(obj, rf, SgdConfig(step_size=alpha, steps=steps, seed=seed))
    return rf, sampler, obj, alg


def ring_ising_sampler(n=5, coupling=0.2, rule="self", sweeps=40):
    g = graphs.cycle_graph(n)
    rf = graphs.one_hop_receptive_fields(g)
    spec = sampling.IsingSpec(coupling=coupling * g.adjacency.astype(float),
                              external_field=np.zeros(n), rf=rf, label_rule=rule)
    return sampling.IsingSampler(spec=spec, sweeps=sweeps, min_sweeps=sweeps)


def test_constant_algorithm_zero_stability():
    rf, sampler, obj, _ = make_setup()
    alg = ConstantAlgorithm(obj, rf, np.array([0.1, 0.2, 0.3]))
    b1, b2 = estimate_vertex_stability(alg, sampler, 2, 3, 3, seed=0)
    assert b1 == 0.0 and b2 == 0.0
    assert estimate_mu(alg, sampler, m=2, pert_draws=1, test_draws=2, seed=0) == 0.0


def test_sgd_zero_steps_zero_stability():
    rf, sampler, obj, _ = make_setup(steps=0)
    alg = SgdAlgorithm(obj, rf, SgdConfig(step_size=0.1, steps=0, seed=1))
    b1, b2 = estimate_vertex_stability(alg, sampler, 1, 2, 2, seed=1)
    assert b1 == 0.0 and b2 == 0.0


def test_monotone_in_perturbation_draws():
    rf, sampler, obj, alg = make_setup()
    _, b2_small = estimate_vertex_stability(alg, sampler, 0, 2, 2, seed=2)
    _, b2_large = estimate_vertex_stability(alg, sampler, 0, 6, 2, seed=2)
    # nested seed streams: draws 0..1 are shared, the max can only grow
    assert b2_large >= b2_small


def test_nondeterministic_algorithm_rejected():
    rf, sampler, obj, _ = make_setup()

    class Flaky(ConstantAlgorithm):
        def __init__(self, objective, rf):
            super().__init__(objective, rf, np.zeros(3))
            self._count = 0

        def train(self, z):
            self._count += 1
            return np.full(3, float(self._count))

    with pytest.raises(NonDeterministicAlgorithmError):
        estimate_vertex_stability(Flaky(obj, rf), sampler, 0, 1, 1, seed=3,
                                  check_determinism=True)


def test_estimate_stability_ordering_and_bounds():
    rf, sampler, obj, alg = make_setup()
    est = estimate_stability(alg, sampler, 2, 2, seed=4)
    assert 0.0 <= est.beta1 <= est.beta2 <= obj.certificate.loss_bound
    assert np.all(est.beta1_i <= est.beta2_i + 1e-15)
    assert est.discrepancy == pytest.approx(est.beta2 - est.beta1)


def test_estimate_stability_reproducible():
    rf, sampler, obj, alg = make_setup()
    e1 = estimate_stability(alg, sampler, 2, 2, seed=5)
    e2 = estimate_stability(alg, sampler, 2, 2, seed=5)
    assert np.array_equal(e1.beta2_i, e2.beta2_i)
    assert np.array_equal(e1.beta1_i, e2.beta1_i)


def test_mu_m1_equals_beta2_pipeline():
    rf, sampler, obj, alg = make_setup(n=5, steps=25)
    est = estimate_stability(alg, sampler, 2, 2, seed=6)
    mu = estimate_mu(alg, sampler, m=1, pert_draws=2, test_draws=2, seed=6)
    assert mu == pytest.approx(est.beta2, abs=0.0)


def test_mu_dominates_beta2_on_shared_seeds():
    rf, sampler, obj, alg = make_setup(n=5, steps=25)
    est = estimate_stability(alg, sampler, 2, 2, seed=7)
    mu2 = estimate_mu(alg, sampler, m=2, pert_draws=2, test_draws=2, seed=7)
    # a larger perturbation family can reveal larger gaps, never smaller in
    # expectation; at minimum mu stays non-negative and ordering holds vs m=1
    mu1 = estimate_mu(alg, sampler, m=1, pert_draws=2, test_draws=2, seed=7)
    assert mu1 == pytest.approx(est.beta2)
    assert mu2 >= 0.0


def test_generalization_gap_constant_algorithm_centered():
    rf, sampler, obj, _ = make_setup()
    alg = ConstantAlgorithm(obj, rf, np.array([0.05, -0.05, 0.1]))
    gaps = estimate_generalization_gap(alg, sampler, test_graphs=4, trials=64, seed=8)
    phis = np.array([g.phi for g in gaps])
    assert np.all(np.abs(phis) <= obj.certificate.loss_bound)
    se = phis.std(ddof=1) / np.sqrt(len(phis))
    assert abs(phis.mean()) <= 3 * se + 1e-12


def test_generalization_gap_bounded_for_sgd():
    rf, sampler, obj, alg = make_setup()
    gaps = estimate_generalization_gap(alg, sampler, test_graphs=2, trials=8, seed=9)
    assert all(abs(g.phi) <= obj.certificate.loss_bound for g in gaps)


# ---------------------------------------------------------------------------
# Exhaustive oracle


def test_exhaustive_requires_self_rule():
    sampler = ring_ising_sampler(rule="field-mean")
    rf, _, obj, alg = make_setup(n=5)
    with pytest.raises(ValueError):
        exhaustive_binary_stability(alg, sampler.spec)


def test_exhaustive_constant_algorithm_zero():
    sampler = ring_ising_sampler(n=4, rule="self")
    rf = sampler.spec.rf
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    alg = ConstantAlgorithm(obj, rf, np.zeros(3))
    ex = exhaustive_binary_stability(alg, sampler.spec)
    assert ex.beta1 == 0.0 and ex.beta2 == 0.0


def test_exhaustive_dominates_monte_carlo():
    sampler = ring_ising_sampler(n=4, rule="self")
    rf = sampler.spec.rf
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    alg = SgdAlgorithm(obj, rf, SgdConfig(step_size=0.1, steps=20, seed=10))
    ex = exhaustive_binary_stability(alg, sampler.spec)
    est = estimate_stability(alg, sampler, 3, 3, seed=11)
    assert est.beta2 <= ex.beta2 + 1e-12
    assert est.beta1 <= ex.beta1 + 1e-12
    assert 0.0 < ex.beta1 <= ex.beta2


def test_exhaustive_beta_ordering_per_vertex():
    sampler = ring_ising_sampler(n=5, rule="self")
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    alg = SgdAlgorithm(obj, sampler.spec.rf, SgdConfig(step_size=0.1, steps=15, seed=12))
    ex = exhaustive_binary_stability(alg, sampler.spec)
    assert np.all(ex.beta1_i <= ex.beta2_i + 1e-15)


def test_multi_replacement_shift_bounded_by_cardinality_times_beta2():
    # |loss shift| for a Lambda-replacement is at most card(Lambda) * beta2
    sampler = ring_ising_sampler(n=5, rule="self")
    spec = sampler.spec
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    alg = SgdAlgorithm(obj, spec.rf, SgdConfig(step_size=0.1, steps=20, seed=13))
    ex = exhaustive_binary_stability(alg, spec)
    configs = sampling.enumerate_spin_configs(spec.n)
    test_sets = [spec.sample_set_from_spins(configs[k], seed=0) for k in (0, 9, 21, 31)]
    rng = np.random.default_rng(14)
    for _ in range(20):
        base = int(rng.integers(0, len(configs)))
        lam_size = int(rng.integers(1, 4))
        lam = rng.choice(spec.n, size=lam_size, replace=False).tolist()
        shift = multi_replacement_shift(alg, spec, base, lam, test_sets)
        assert shift <= lam_size * ex.beta2 + 1e-9


def test_exact_risk_matches_weighted_average():
    sampler = ring_ising_sampler(n=4, rule="self")
    spec = sampler.spec
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    alg = ConstantAlgorithm(obj, spec.rf, np.array([0.2, 0.0, -0.1]))
    h = alg.train(spec.sample_set_from_spins(np.ones(4, dtype=int), seed=0))
    risk = exact_risk(alg, h, spec)
    probs = sampling.gibbs_probabilities(spec)
    configs = sampling.enumerate_spin_configs(4)
    manual = sum(
        float(probs[k]) * float(alg.losses(h, spec.sample_set_from_spins(configs[k], 0)).mean())
        for k in range(16)
    )
    assert risk == pytest.approx(manual, rel=1e-12)


def test_gnn_algorithm_in_harness():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    alg = ClosedFormGnnAlgorithm(rf, weight=np.array([0.5, 0.3, -0.2]), ridge=1.0)
    b1, b2 = estimate_vertex_stability(alg, sampler, 1, 2, 2, seed=15)
    assert 0.0 <= b1 <= b2
    assert b2 > 0.0


def test_empirical_beta2_below_expected_bound():
    # harness estimate vs the closed-form expected bound on matching constants
    rf, sampler, obj, alg = make_setup(n=8, steps=50)
    est = estimate_stability(alg, sampler, 2, 2, seed=16)
    params = bounds.SgdBoundParams(
        certificate=obj.certificate, step_size=0.1, steps=50, n_vertices=8,
        field_sizes=rf.sizes, regime=bounds.STRONGLY_CONVEX,
    )
    bound = bounds.expected_stability_bound(params)
    assert bound is not None
    assert est.beta2 <= bound
