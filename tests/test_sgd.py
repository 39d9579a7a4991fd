import dataclasses
import warnings

import numpy as np
import pytest

from grlstab import bounds, graphs, sampling
from grlstab.objectives import (QuadraticFieldObjective, RippleFieldObjective,
                                contraction_check)
from grlstab.sgd import (SgdConfig, SgdDivergenceError, case_label, coupled_train,
                         draw_indices, envelope_check, train)
from grlstab.seeding import child_rng


def setup_problem(n=8, seed=0, w_radius=1.0):
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, w_radius)
    return rf, sampler, obj, sampler.sample(seed)


# ---------------------------------------------------------------------------
# Reference: the per-step update map G and the SGD loop as they stood before
# the loop gathered its rows and checked its gradients after the last step.
# `train` and `coupled_train` must match them bit for bit.


def project(w, radius):
    norm = float(np.linalg.norm(w))
    if norm > radius:
        return w * (radius / norm)
    return w


def bound_gradient(bound, i, w):
    """Gradient of vertex i's objective on a bound sample set."""
    return bound.objective.grad_uy(bound.u[i], float(bound.y[i]), w)


def sgd_step(w, alpha, i, z, rf, obj):
    """One projected update G(w, alpha, i) on vertex i's objective."""
    g = bound_gradient(obj.bind(z, rf), i, w)
    return project(w - alpha * g, obj.certificate.weight_radius)


def reference_descend(bounds, indices, cfg):
    n = bounds[0].n
    alpha = cfg.step_size
    radius = bounds[0].objective.certificate.weight_radius
    weights = np.empty((len(indices) + 1, bounds[0].objective.dim))
    w = np.zeros(weights.shape[1])
    weights[0] = w
    copies, vertices = np.divmod(indices, n)
    for t, (c, i) in enumerate(zip(copies.tolist(), vertices.tolist())):
        g = bound_gradient(bounds[c], i, w)
        if not np.all(np.isfinite(g)):
            raise SgdDivergenceError(f"non-finite gradient at step {t}, vertex {i}")
        w = project(w - alpha * g, radius)
        weights[t + 1] = w
    return weights


def reference_coupled(z, z_pert, rf, obj, cfg):
    """(base weights, perturbed weights, delta norms, case labels)."""
    vertex = int(z.differing_vertices(z_pert)[0])
    indices = draw_indices(cfg, z.n)
    weights = reference_descend([obj.bind(z, rf)], indices, cfg)
    weights_p = reference_descend([obj.bind(z_pert, rf)], indices, cfg)
    deltas = np.array([float(np.linalg.norm(w - wp)) for w, wp in zip(weights, weights_p)])
    labels = tuple(case_label(rf, vertex, i) for i in indices.tolist())
    return weights, weights_p, deltas, labels


def divergence_message(fn, *args):
    with pytest.raises(SgdDivergenceError) as info:
        fn(*args)
    return str(info.value)


def test_zero_step_identity():
    rf, sampler, obj, z = setup_problem()
    w = np.array([0.2, -0.1, 0.3])
    assert np.allclose(sgd_step(w, 0.0, 2, z, rf, obj), w)


def test_pure_quadratic_closed_form_step():
    # zero data term: w' = (1 - alpha * gamma) w
    rf = graphs.one_hop_receptive_fields(graphs.empty_graph(3))
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    z = sampling.SampleSet(features=np.zeros((3, 3)), labels=np.zeros(3), seed=0)
    w = np.array([0.4, 0.0, -0.4])
    out = sgd_step(w, 0.1, 1, z, rf, obj)
    assert np.allclose(out, (1 - 0.1 * 0.5) * w)


def test_step_matches_gradient_composition():
    rf, sampler, obj, z = setup_problem()
    rng = child_rng(1, "recompose")
    for _ in range(100):
        w = obj._random_w(rng, 1)[0]
        i = int(rng.integers(0, z.n))
        expected = w - 0.05 * bound_gradient(obj.bind(z, rf), i, w)
        assert np.allclose(sgd_step(w, 0.05, i, z, rf, obj), expected)  # inside ball


def test_train_zero_steps():
    rf, sampler, obj, z = setup_problem()
    traj = train([obj.bind(z, rf)], SgdConfig(step_size=0.1, steps=0, seed=3))
    assert traj.weights.shape == (1, 3)
    assert np.allclose(traj.weights[0], 0.0)


def test_train_deterministic():
    rf, sampler, obj, z = setup_problem()
    cfg = SgdConfig(step_size=0.1, steps=50, seed=4)
    t1, t2 = train([obj.bind(z, rf)], cfg), train([obj.bind(z, rf)], cfg)
    assert np.array_equal(t1.indices, t2.indices)
    assert np.array_equal(t1.weights, t2.weights)


def risk_gradient(bound, w):
    """Gradient of the empirical risk (1/N) sum_i f(S_i, w) of a bound set."""
    g = np.zeros_like(w)
    for i in range(bound.n):
        g += bound_gradient(bound, i, w)
    return g / bound.n


def test_train_reduces_empirical_risk_gradient():
    rf, sampler, obj, z = setup_problem(n=8, seed=5)
    cfg = SgdConfig(step_size=0.1, steps=1000, seed=6)
    bound = obj.bind(z, rf)
    traj = train([bound], cfg)
    g0 = np.linalg.norm(risk_gradient(bound, traj.weights[0]))
    gT = np.linalg.norm(risk_gradient(bound, traj.weights[-1]))
    assert gT < g0


def reference_train_pooled(sets, rf, obj, cfg):
    """Straight-line pooled SGD loop that `train` must match bit for bit."""
    bounds = [obj.bind(z, rf) for z in sets]
    radius = obj.certificate.weight_radius
    n = sets[0].n
    pooled = child_rng(cfg.seed, "indices").integers(0, len(sets) * n, size=cfg.steps)
    w = np.zeros(obj.dim)
    for k in pooled:
        g = bound_gradient(bounds[int(k) // n], int(k) % n, w)
        w = project(w - cfg.step_size * g, radius)
    return w


def test_train_pooled_matches_reference_loop():
    rf, sampler, obj, z = setup_problem()
    sets = [z, sampler.sample(1)]
    for seed in range(5):
        cfg = SgdConfig(step_size=0.1, steps=60, seed=seed)
        assert np.array_equal(train([obj.bind(s, rf) for s in sets], cfg).final,
                              reference_train_pooled(sets, rf, obj, cfg))


def test_coupled_sides_equal_separate_trainings():
    rf, sampler, obj, z = setup_problem()
    z_i = sampler.replace(z, [5], seed=30)
    cfg = SgdConfig(step_size=0.1, steps=50, seed=31)
    trace = coupled_train(z, z_i, rf, obj, cfg)
    assert np.array_equal(trace.base.weights, train([obj.bind(z, rf)], cfg).weights)
    assert np.array_equal(trace.perturbed.weights, train([obj.bind(z_i, rf)], cfg).weights)
    # one norm per row: norm(..., axis=1) differs in the last bits and would
    # change the recorded deviation files
    rows = [float(np.linalg.norm(w - wp)) for w, wp in zip(trace.base.weights,
                                                          trace.perturbed.weights)]
    assert np.array_equal(trace.delta_norms, rows)


BIT_EQUALITY_OBJECTIVES = {
    "quadratic": lambda: QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0),
    "quadratic-projected": lambda: QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 0.15),
    "ripple": lambda: RippleFieldObjective(3, 1.0, 1.0, 1.0, 1 / 32, 1.0),
}


@pytest.mark.parametrize("family", sorted(BIT_EQUALITY_OBJECTIVES))
def test_descent_equals_reference_loop_bit_for_bit(family):
    obj = BIT_EQUALITY_OBJECTIVES[family]()
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(16))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    projected = 0
    for seed in range(6):
        z, z2 = sampler.sample(100 + seed), sampler.sample(200 + seed)
        z_i = sampler.replace(z, [seed % rf.n], seed=300 + seed)
        cfg = SgdConfig(step_size=0.3, steps=200, seed=seed)
        bound, bound2 = obj.bind(z, rf), obj.bind(z2, rf)

        traj = train([bound], cfg)
        assert np.array_equal(traj.weights, reference_descend([bound], traj.indices, cfg))
        pooled = draw_indices(cfg, 2 * rf.n)
        assert np.array_equal(train([bound, bound2], cfg).weights,
                              reference_descend([bound, bound2], pooled, cfg))

        trace = coupled_train(z, z_i, rf, obj, cfg)
        weights, weights_p, deltas, labels = reference_coupled(z, z_i, rf, obj, cfg)
        assert np.array_equal(trace.base.weights, weights)
        assert np.array_equal(trace.perturbed.weights, weights_p)
        assert np.array_equal(trace.delta_norms, deltas)
        assert trace.case_labels == labels
        radius = obj.certificate.weight_radius
        projected += int(np.sum(np.linalg.norm(traj.weights, axis=1) >= radius * (1 - 1e-12)))
    if family == "quadratic-projected":
        assert projected > 0  # the iterates reach the ball's surface


def test_non_finite_gradient_raises_divergence_error():
    rf, sampler, obj, z = setup_problem()
    features = z.features.copy()
    features[0, 0] = np.inf
    z_bad = sampling.SampleSet(features=features, labels=z.labels, seed=0)
    z_bad_i = sampler.replace(z_bad, [4], seed=32)
    assert z_bad.differing_vertices(z_bad_i).tolist() == [4]
    cfg = SgdConfig(step_size=0.1, steps=50, seed=33)
    good, bad = obj.bind(z, rf), obj.bind(z_bad, rf)
    # the message of the per-step check in the reference loop: first bad
    # step and its vertex
    expected_single = divergence_message(reference_descend, [bad], draw_indices(cfg, rf.n), cfg)
    expected_pooled = divergence_message(reference_descend, [good, bad],
                                         draw_indices(cfg, 2 * rf.n), cfg)
    assert expected_single != "non-finite gradient at step 0, vertex 0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the NaN tail
        assert divergence_message(train, [bad], cfg) == expected_single
        assert divergence_message(train, [good, bad], cfg) == expected_pooled
        assert divergence_message(coupled_train, z_bad, z_bad_i, rf, obj, cfg) == expected_single


def test_coupled_rejects_multi_vertex_difference():
    rf, sampler, obj, z = setup_problem()
    z2 = sampler.replace(z, [1, 3], seed=8)
    with pytest.raises(ValueError):
        coupled_train(z, z2, rf, obj, SgdConfig(step_size=0.1, steps=5, seed=9))


def test_coupled_accepts_unchanged_replacement():
    # a replacement that redraws the same value at vertex 2 (as a Gibbs
    # conditional redraw often does) is a valid Z^i with zero deviations
    rf, sampler, obj, z = setup_problem()
    z_same = dataclasses.replace(z, perturbed=frozenset({2}))
    assert z.differing_vertices(z_same).size == 0
    trace = coupled_train(z, z_same, rf, obj, SgdConfig(step_size=0.1, steps=40, seed=17))
    assert trace.vertex == 2
    assert np.array_equal(trace.delta_norms, np.zeros(41))
    assert "self" in trace.case_labels
    assert envelope_check(trace, obj).ok


def test_coupled_rejects_difference_away_from_replaced_vertex():
    rf, sampler, obj, z = setup_problem()
    other = dataclasses.replace(sampler.sample(99), perturbed=frozenset({2}))
    with pytest.raises(ValueError, match="differing only at the replaced vertex"):
        coupled_train(z, other, rf, obj, SgdConfig(step_size=0.1, steps=5, seed=9))


def test_coupled_shares_index_stream_and_starts_at_zero():
    rf, sampler, obj, z = setup_problem()
    z_i = sampler.replace(z, [2], seed=10)
    trace = coupled_train(z, z_i, rf, obj, SgdConfig(step_size=0.1, steps=30, seed=11))
    assert trace.vertex == 2
    assert np.array_equal(trace.base.indices, trace.perturbed.indices)
    assert trace.delta_norms[0] == 0.0
    assert len(trace.case_labels) == 30


def test_coupled_zero_steps():
    rf, sampler, obj, z = setup_problem()
    z_i = sampler.replace(z, [2], seed=12)
    trace = coupled_train(z, z_i, rf, obj, SgdConfig(step_size=0.1, steps=0, seed=13))
    assert np.array_equal(trace.delta_norms, [0.0])


def test_unvisited_vertex_keeps_delta_zero():
    # force an index stream that never touches Xi(2) by rerolling seeds
    rf, sampler, obj, z = setup_problem(n=8)
    z_i = sampler.replace(z, [2], seed=14)
    for seed in range(200):
        cfg = SgdConfig(step_size=0.1, steps=6, seed=seed)
        trace = coupled_train(z, z_i, rf, obj, cfg)
        if all(lab == "miss" for lab in trace.case_labels):
            assert np.allclose(trace.delta_norms, 0.0)
            return
    pytest.fail("no all-miss stream found in 200 seeds")


def test_case_labels_match_fields():
    rf, sampler, obj, z = setup_problem(n=8)
    z_i = sampler.replace(z, [3], seed=15)
    trace = coupled_train(z, z_i, rf, obj, SgdConfig(step_size=0.1, steps=50, seed=16))
    for t, sampled in enumerate(trace.base.indices):
        expected = ("self" if sampled == 3
                    else "hit" if 3 in rf.xi[int(sampled)] else "miss")
        assert trace.case_labels[t] == expected


def test_envelope_strongly_convex_holds():
    # weight ball small enough that 2 W <= alpha B_Z zeta (kicked cases are
    # covered) and the contraction cases hold by the update-map properties
    n = 8
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 0.15)
    cert = obj.certificate
    alpha = 0.1
    assert 2 * cert.weight_radius <= alpha * cert.sample_diameter * cert.gradient_data_lipschitz
    for trial in range(20):
        z = sampler.sample(trial)
        z_i = sampler.replace(z, [trial % n], seed=trial + 1000)
        trace = coupled_train(z, z_i, rf, obj,
                              SgdConfig(step_size=alpha, steps=60, seed=trial))
        report = envelope_check(trace, obj)
        assert report.regime == "strongly-convex"
        assert report.regime_a_active
        assert report.ok, f"margin {report.margins.min()} at trial {trial}"


def test_envelope_nonconvex_holds():
    n = 8
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    obj = RippleFieldObjective(3, 1.0, 1.0, 1.0, 1 / 32, 1.0)
    for trial in range(20):
        z = sampler.sample(trial)
        z_i = sampler.replace(z, [trial % n], seed=trial + 2000)
        trace = coupled_train(z, z_i, rf, obj,
                              SgdConfig(step_size=0.05, steps=60, seed=trial))
        report = envelope_check(trace, obj)
        assert report.regime == "non-convex"
        assert report.ok, f"margin {report.margins.min()} at trial {trial}"


def test_envelope_branch_follows_bound_step_condition():
    # lam = 1, gamma = 0.5: a^4 + 2a/3 <= 1 up to a ~ 0.79
    rf, sampler, obj, z = setup_problem()
    z_i = sampler.replace(z, [0], seed=1)
    seen = set()
    for alpha in (0.1, 0.7, 0.9, 1.2):
        cfg = SgdConfig(step_size=alpha, steps=5, seed=2)
        trace = coupled_train(z, z_i, rf, obj, cfg)
        params = bounds.SgdBoundParams(certificate=obj.certificate, step_size=alpha,
                                       steps=5, n_vertices=rf.n, field_sizes=rf.sizes,
                                       regime=obj.regime)
        active = envelope_check(trace, obj).regime_a_active
        assert active == bounds.step_condition_ok(params)
        seen.add(active)
    assert seen == {True, False}


def test_visit_time_tail_matches_geometric():
    # P(Gamma > t) = (1 - d_i)^t under uniform sampling
    n = 10
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    d_i = rf.d[0]
    runs = 10_000
    t_check = 4
    rng = child_rng(20, "visits")
    survive = 0
    for _ in range(runs):
        stream = rng.integers(0, n, size=t_check)
        if all(0 not in rf.xi[int(s)] for s in stream):
            survive += 1
    expected = (1 - d_i) ** t_check
    se = np.sqrt(expected * (1 - expected) / runs)
    assert abs(survive / runs - expected) <= 3 * se


def first_hit_time(trace_indices: np.ndarray, rf, vertex: int) -> int:
    """First step t >= 1 whose sampled receptive field contains the vertex.

    Returns steps + 1 if the vertex's field is never encountered; the tail
    P(Gamma > t) equals (1 - d_i)^t under uniform sampling.
    """
    for t, sampled in enumerate(trace_indices, start=1):
        if vertex in rf.xi[int(sampled)]:
            return t
    return len(trace_indices) + 1


def test_first_hit_time_helper():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(5))
    # vertex 0's field is {4, 0, 1}
    assert first_hit_time(np.array([2, 3, 4]), rf, 0) == 3
    assert first_hit_time(np.array([2, 3]), rf, 0) == 3  # never hit -> T+1


def test_contraction_zero_step_identity():
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    report = contraction_check(obj, alpha=0.0, trials=200, seed=21)
    assert report.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_contraction_clauses_quadratic():
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    alpha = 2.0 / (1.0 + 0.5)  # threshold for the strong-convexity clause
    report = contraction_check(obj, alpha=alpha, trials=2000, seed=22)
    assert report.max_ratio <= report.bound_general + 1e-9
    assert report.max_ratio_strongly is not None
    assert report.max_ratio_strongly <= report.bound_strongly + 1e-9


def test_contraction_scalar_identity_at_equal_curvatures():
    # pure quadratic with lam = gamma: ratio is exactly |1 - alpha*gamma|
    obj = QuadraticFieldObjective(3, 1.0, 1.0, 1.0, 1.0, 1.0)
    alpha = 0.8
    report = contraction_check(obj, alpha=alpha, trials=500, seed=23)
    assert report.max_ratio == pytest.approx(abs(1 - alpha * 1.0), abs=1e-9)
    # and |1 - alpha*gamma| <= 1 - alpha*lam*gamma/(lam+gamma) numerically
    assert abs(1 - alpha) <= 1 - alpha * 1.0 * 1.0 / 2.0 + 1e-12


def test_contraction_nonconvex_general_clause():
    obj = RippleFieldObjective(3, 1.0, 1.0, 1.0, 1 / 32, 1.0)
    report = contraction_check(obj, alpha=0.3, trials=2000, seed=24)
    assert report.max_ratio <= report.bound_general + 1e-6
    assert report.max_ratio_strongly is None


def test_projection_keeps_iterates_in_ball():
    rf, sampler, obj, z = setup_problem(w_radius=0.3)
    cfg = SgdConfig(step_size=0.5, steps=200, seed=25)
    traj = train([obj.bind(z, rf)], cfg)
    assert np.all(np.linalg.norm(traj.weights, axis=1) <= 0.3 + 1e-12)
