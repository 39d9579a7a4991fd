import numpy as np
import pytest

from grlstab import bounds, gnn, graphs, sampling, sgd, srm
from grlstab.harness import (NonDeterministicAlgorithmError,
                             _prepared_cube, estimate_generalization_gap,
                             estimate_mu, estimate_stability, estimate_vertex_stability,
                             exact_risk, exhaustive_binary_stability)
from grlstab.objectives import FieldObjective, QuadraticFieldObjective, RippleFieldObjective
from grlstab.seeding import seed_int
from grlstab.sgd import SgdAlgorithm, SgdConfig


class ConstantAlgorithm:
    """Training-set independent learner; every stability notion is zero."""

    id = "constant"

    def __init__(self, objective, rf, weights):
        self.objective = objective
        self.rf = rf
        self.weights = np.asarray(weights, dtype=float)

    def prepare(self, z):
        return self.objective.bind(z, self.rf)

    def train(self, bounds):
        return self.weights.copy()

    def losses(self, h, bound):
        return bound.losses(h)


def multi_replacement_shift(alg, spec, base_config: int, flip_vertices, test_configs) -> float:
    """Max test loss shift when the vertices in Lambda are all flipped.

    Configurations are indices into the prepared cube (enumerate_spin_configs
    order); the test sets are the cube configurations ``test_configs``.
    """
    cube = _prepared_cube(alg, spec)
    idx = base_config
    for i in flip_vertices:
        idx ^= 1 << (spec.n - 1 - i)
    h = alg.train([cube[base_config]])
    h_l = alg.train([cube[idx]])
    worst = 0.0
    for c in test_configs:
        worst = max(worst, float(np.abs(alg.losses(h, cube[c]) - alg.losses(h_l, cube[c])).max()))
    return worst


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
    return sampling.IsingSampler(spec=spec, sweeps=sweeps)


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

        def train(self, bounds):
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
    rng = np.random.default_rng(14)
    for _ in range(20):
        base = int(rng.integers(0, 2 ** spec.n))
        lam_size = int(rng.integers(1, 4))
        lam = rng.choice(spec.n, size=lam_size, replace=False).tolist()
        shift = multi_replacement_shift(alg, spec, base, lam, (0, 9, 21, 31))
        assert shift <= lam_size * ex.beta2 + 1e-9


def test_exact_risk_matches_weighted_average():
    sampler = ring_ising_sampler(n=4, rule="self")
    spec = sampler.spec
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    alg = ConstantAlgorithm(obj, spec.rf, np.array([0.2, 0.0, -0.1]))
    h = alg.train([alg.prepare(spec.sample_set_from_spins(np.ones(4, dtype=int), seed=0))])
    risk = exact_risk(alg, h, spec)
    probs = sampling.gibbs_probabilities(spec)
    configs = sampling.enumerate_spin_configs(4)
    manual = sum(
        float(probs[k])
        * float(alg.losses(h, alg.prepare(spec.sample_set_from_spins(configs[k], 0))).mean())
        for k in range(16)
    )
    assert risk == pytest.approx(manual, rel=1e-12)


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


# ---------------------------------------------------------------------------
# Learner protocol: each sample set is prepared once per use


def counting_binds(monkeypatch):
    calls = []
    original = FieldObjective.bind

    def bind(self, z, rf):
        calls.append(z.seed)
        return original(self, z, rf)

    monkeypatch.setattr(FieldObjective, "bind", bind)
    return calls


def test_each_set_bound_once(monkeypatch):
    calls = counting_binds(monkeypatch)
    sampler = ring_ising_sampler(n=5, rule="self")
    alg = SgdAlgorithm(QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0),
                       sampler.spec.rf, SgdConfig(step_size=0.1, steps=15, seed=12))
    exhaustive_binary_stability(alg, sampler.spec)
    assert len(calls) == 2 ** 5

    rf, iid, obj, alg = make_setup()
    calls.clear()
    estimate_vertex_stability(alg, iid, 2, pert_draws=3, test_draws=4, seed=17,
                              check_determinism=True)
    assert len(calls) == 4 + 2 * 3  # test sets, then each training set and its Z^i
    calls.clear()
    estimate_mu(alg, iid, m=2, pert_draws=1, test_draws=3, seed=18)
    # test sets, then per (i0, draw) the pool and one replaced set per target
    assert len(calls) == 3 + rf.n * 1 * (2 + 2)


class ReferenceSgd:
    """The SGD learner on raw sample sets, binding on every call."""

    def __init__(self, alg):
        self.alg = alg
        self.id = alg.id

    def _bind(self, z):
        return self.alg.objective.bind(z, self.alg.rf)

    def train(self, sets):
        return sgd.train([self._bind(z) for z in sets], self.alg.config).final

    def losses(self, h, z):
        return self._bind(z).losses(h)


class ReferenceSrm:
    """The SRM class learner on raw sample sets, one design matrix per call."""

    def __init__(self, alg):
        self.family, self.degree, self.id = alg.family, alg.degree, alg.id

    def train(self, sets):
        phi = np.vstack([self.family.design_matrix(z, self.degree) for z in sets])
        y = np.concatenate([z.labels for z in sets])
        return srm.ball_constrained_least_squares(phi, y, self.family.weight_radius)

    def losses(self, h, z):
        return 0.5 * (self.family.design_matrix(z, self.degree) @ h - z.labels) ** 2


class GnnLearner:
    """The closed-form masked-ridge GNN as a harness learner with no pooled fit:
    it trains on one set only.

    Its prepared set is the GnnProblem of the sample set; the loss is the
    squared error (yhat_j - y_j)^2 of the GNN stability experiments.
    """

    def __init__(self, rf, weight, ridge):
        self.weight = np.asarray(weight, dtype=float)
        self.ridge = float(ridge)
        self.mask = rf.mask
        self.id = f"gnn(ridge={self.ridge})"

    def prepare(self, z):
        return gnn.GnnProblem(
            features=z.features, labels=z.labels, weight=self.weight,
            mask=self.mask, ridge=self.ridge,
            b_x=float(np.linalg.norm(z.features, axis=1).max() + 1.0),
            b_y=float(np.abs(z.labels).max() + 1.0),
            b_w=float(np.linalg.norm(self.weight) + 1.0),
        )

    def train(self, problems):
        (problem,) = problems
        return gnn.fit_projected_closed_form(problem)

    def losses(self, h, problem):
        return (h @ problem.v - problem.labels) ** 2


class ReferenceGnn:
    """The closed-form GNN learner on raw sample sets, one problem per fit."""

    def __init__(self, alg):
        self.alg = alg
        self.id = alg.id

    def train(self, sets):
        (z,) = sets
        alg = self.alg
        problem = gnn.GnnProblem(
            features=z.features, labels=z.labels, weight=alg.weight, mask=alg.mask,
            ridge=alg.ridge, b_x=float(np.linalg.norm(z.features, axis=1).max() + 1.0),
            b_y=float(np.abs(z.labels).max() + 1.0),
            b_w=float(np.linalg.norm(alg.weight) + 1.0))
        return gnn.fit_projected_closed_form(problem)

    def losses(self, h, z):
        return (h @ (z.features @ self.alg.weight) - z.labels) ** 2


def reference_stability(ref, sampler, pert_draws, test_draws, seed):
    """estimate_stability on raw sets, rebuilding inputs on every call."""
    n = sampler.rf.n
    beta1_i, beta2_i = np.zeros(n), np.zeros(n)
    for i in range(n):
        outside = sampler.rf.outside(i)
        test_sets = [sampler.sample(seed_int(seed, "test", k)) for k in range(test_draws)]
        for k in range(pert_draws):
            z = sampler.sample(seed_int(seed, "train", i, k))
            z_i = sampler.replace(z, [i], seed_int(seed, "replace", i, k))
            h, h_i = ref.train([z]), ref.train([z_i])
            for z_test in test_sets:
                gap = np.abs(ref.losses(h, z_test) - ref.losses(h_i, z_test))
                beta2_i[i] = max(beta2_i[i], float(gap.max()))
                if outside.size:
                    beta1_i[i] = max(beta1_i[i], float(gap[outside].max()))
    return beta1_i, beta2_i


def reference_mu(ref, sampler, m, pert_draws, test_draws, seed):
    """estimate_mu on raw sets, rebuilding inputs on every call."""
    test_sets = [sampler.sample(seed_int(seed, "test", k)) for k in range(test_draws)]
    mu = 0.0
    for i0 in range(sampler.rf.n):
        for k in range(pert_draws):
            sets = [sampler.sample(seed_int(seed, "train", i0, k))]
            sets += [sampler.sample(seed_int(seed, "train", i0, k, "extra", extra))
                     for extra in range(1, m)]
            for j0 in range(m):
                perturbed = list(sets)
                perturbed[j0] = sampler.replace(
                    sets[j0], [i0], seed_int(seed, "replace", i0, k, j0)
                    if j0 else seed_int(seed, "replace", i0, k))
                h, h_p = ref.train(sets), ref.train(perturbed)
                for z_test in test_sets:
                    mu = max(mu, float(np.abs(ref.losses(h, z_test)
                                              - ref.losses(h_p, z_test)).max()))
    return mu


def reference_exhaustive(ref, spec):
    """exhaustive_binary_stability on raw cube sets, 4^N input builds."""
    sets = [spec.sample_set_from_spins(c, seed=0)
            for c in sampling.enumerate_spin_configs(spec.n)]
    hypotheses = [ref.train([z]) for z in sets]
    table = np.stack([np.stack([ref.losses(h, z) for z in sets]) for h in hypotheses])
    flip = np.arange(len(sets))[:, None] ^ (1 << (spec.n - 1 - np.arange(spec.n)))[None, :]
    beta1_i, beta2_i = np.zeros(spec.n), np.zeros(spec.n)
    for i in range(spec.n):
        gaps = np.abs(table - table[flip[:, i]])
        beta2_i[i] = float(gaps.max())
        outside = spec.rf.outside(i)
        if outside.size:
            beta1_i[i] = float(gaps[:, :, outside].max())
    return beta1_i, beta2_i


def protocol_learners(rf):
    quad = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    ripple = RippleFieldObjective(3, 1.0, 1.0, 1.0, 1 / 32, 1.0)
    family = srm.DegreeClassFamily(rf=rf, d_max=3, dim=3, weight_radius=1.0,
                                   b_x=1.0, b_y=1.0)
    learners = [(SgdAlgorithm(obj, rf, SgdConfig(step_size=0.1, steps=20, seed=19)),
                 ReferenceSgd) for obj in (quad, ripple)]
    learners += [(srm.SrmClassAlgorithm(family, d), ReferenceSrm) for d in (1, 2, 3)]
    learners.append((GnnLearner(rf, np.array([0.5, 0.3, -0.2]), ridge=1.0), ReferenceGnn))
    return learners


def test_prepared_harness_equals_reference_bit_for_bit():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(5))
    iid = sampling.IidSampler(rf=rf, dim=3)
    spec = ring_ising_sampler(n=5, rule="self").spec
    for alg, reference in protocol_learners(rf):
        ref = reference(alg)
        est = estimate_stability(alg, iid, 2, 2, seed=20)
        beta1_i, beta2_i = reference_stability(ref, iid, 2, 2, seed=20)
        assert np.array_equal(est.beta1_i, beta1_i), alg.id
        assert np.array_equal(est.beta2_i, beta2_i), alg.id
        ex = exhaustive_binary_stability(alg, spec)
        beta1_i, beta2_i = reference_exhaustive(ref, spec)
        assert np.array_equal(ex.beta1_i, beta1_i), alg.id
        assert np.array_equal(ex.beta2_i, beta2_i), alg.id
        if not isinstance(alg, GnnLearner):  # the GNN learner has no pooled fit
            assert estimate_mu(alg, iid, 2, 1, 2, seed=21) == reference_mu(ref, iid, 2, 1, 2,
                                                                         seed=21), alg.id


def test_mu_at_m1_is_beta2_for_every_learner():
    # m = 1 trains on one set at a time, so learners without a pooled fit
    # (the GNN) are covered too
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(5))
    iid = sampling.IidSampler(rf=rf, dim=3)
    for alg, _ in protocol_learners(rf):
        beta2 = estimate_stability(alg, iid, 2, 2, seed=22).beta2
        assert estimate_mu(alg, iid, 1, 2, 2, seed=22) == beta2, alg.id
