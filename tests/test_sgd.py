import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from grlstab import bounds, cli, graphs, sampling, sgd
from grlstab.objectives import (QuadraticFieldObjective, RippleFieldObjective,
                                contraction_check, row_norms)
from grlstab.sgd import (SgdConfig, SgdDivergenceError, coupled_train, draw_indices,
                         envelope_check, train)
from grlstab.sampling import rows_in_ball
from grlstab.seeding import child_rng

from test_objectives import (ReferenceQuadratic, ReferenceRipple, left_to_right_dot,
                             same_bits)


def setup_problem(n=8, seed=0, w_radius=1.0):
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, w_radius)
    return rf, sampler, obj, sampler.sample(seed)


# ---------------------------------------------------------------------------
# Reference: the per-step update map G and the SGD loop as they stood before
# the loop gathered its rows and checked its gradients after the last step.
# `train` and `coupled_train` must match them bit for bit. Norms are the
# square root of the package's w.w, the plain loop `left_to_right_dot`, or
# math.hypot where w.w overflows or falls below the smallest normal float.


def norm(w):
    ww = left_to_right_dot(w, w)
    return math.sqrt(ww) if sys.float_info.min <= ww < math.inf else math.hypot(*w)


def project(w, radius):
    norm_w = norm(w)
    if norm_w > radius:
        return w * (radius / norm_w)
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


def case_label(rf, vertex, sampled):
    """The case of a step that samples ``sampled``, from that vertex's own field."""
    if sampled == vertex:
        return "self"
    if vertex in rf.xi[sampled]:
        return "hit"
    return "miss"


def reference_coupled(z, z_pert, rf, obj, cfg):
    """(base weights, perturbed weights, delta norms, case labels)."""
    vertex = int(z.differing_vertices(z_pert)[0])
    indices = draw_indices(cfg, z.n)
    weights = reference_descend([obj.bind(z, rf)], indices, cfg)
    weights_p = reference_descend([obj.bind(z_pert, rf)], indices, cfg)
    deltas = np.array([norm(w - wp) for w, wp in zip(weights, weights_p)])
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
        w = rows_in_ball(rng, 1, obj.dim, obj.weight_radius)[0]
        i = int(rng.integers(0, z.n))
        expected = w - 0.05 * bound_gradient(obj.bind(z, rf), i, w)
        assert np.allclose(sgd_step(w, 0.05, i, z, rf, obj), expected)  # inside ball


@pytest.mark.parametrize("step_size", [float("nan"), float("inf"), -float("inf"), -0.1])
def test_step_size_not_finite_and_non_negative_rejected(step_size):
    with pytest.raises(ValueError, match="step size must be finite and >= 0"):
        SgdConfig(step_size=step_size, steps=5, seed=0)


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
    # the row norms over columns equal one left-to-right w.w per row
    rows = [norm(w - wp) for w, wp in zip(trace.base.weights, trace.perturbed.weights)]
    assert np.array_equal(trace.delta_norms, rows)


BIT_EQUALITY_OBJECTIVES = {
    "quadratic": lambda dim: QuadraticFieldObjective(dim, 1.0, 0.5, 1.0, 1.0, 1.0),
    "quadratic-projected": lambda dim: QuadraticFieldObjective(dim, 1.0, 0.5, 1.0, 1.0, 0.15),
    "ripple": lambda dim: RippleFieldObjective(dim, 1.0, 1.0, 1.0, 1 / 32, 1.0),
}


def assert_descents_equal_reference(obj, rf, sampler, seed, step_size, pool, steps=200):
    """train on one set and on a pool of sets, and one coupled run, against
    the reference loops; returns the single-set trajectory."""
    sets = [sampler.sample(100 * c + seed) for c in range(1, pool + 1)]
    z_i = sampler.replace(sets[0], [seed % rf.n], seed=300 + seed)
    cfg = SgdConfig(step_size=step_size, steps=steps, seed=seed)
    bounds = [obj.bind(z, rf) for z in sets]

    # train keeps only w_T, from the descent that records nothing, and
    # records the iterates when they are first read
    single = train(bounds[:1], cfg)
    for pooled, traj in ((bounds[:1], single), (bounds, train(bounds, cfg))):
        assert "weights" not in vars(traj)
        weights = reference_descend(pooled, draw_indices(cfg, len(pooled) * rf.n), cfg)
        assert same_bits(traj.final, weights[-1])
        assert np.array_equal(traj.weights, weights) and traj.weights is traj.weights

    trace = coupled_train(sets[0], z_i, rf, obj, cfg)
    weights, weights_p, deltas, labels = reference_coupled(sets[0], z_i, rf, obj, cfg)
    assert np.array_equal(trace.base.weights, weights)
    assert np.array_equal(trace.perturbed.weights, weights_p)
    assert np.array_equal(trace.delta_norms, deltas)
    assert trace.case_labels == labels
    return single


@pytest.mark.parametrize("family", sorted(BIT_EQUALITY_OBJECTIVES))
def test_descent_equals_reference_loop_bit_for_bit(family):
    obj = BIT_EQUALITY_OBJECTIVES[family](3)
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(16))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    projected = 0
    for seed in range(6):
        traj = assert_descents_equal_reference(obj, rf, sampler, seed, 0.3, 2)
        radius = obj.certificate.weight_radius
        projected += int(np.sum(np.linalg.norm(traj.weights, axis=1) >= radius * (1 - 1e-12)))
    if family == "quadratic-projected":
        assert projected > 0  # the iterates reach the ball's surface


@pytest.mark.parametrize("dim", [1, 2, 5, 12])
@pytest.mark.parametrize("family", sorted(BIT_EQUALITY_OBJECTIVES))
def test_descent_equals_reference_loop_across_dims_pools_and_step_sizes(family, dim):
    # a step size of 3.0 is past every stability condition: the iterates
    # keep hitting the sphere and are projected back
    obj = BIT_EQUALITY_OBJECTIVES[family](dim)
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(8))
    sampler = sampling.IidSampler(rf=rf, dim=dim)
    for seed, step_size in [(0, 0.3), (1, 3.0), (2, 3.0)]:
        assert_descents_equal_reference(obj, rf, sampler, seed, step_size, 3)


def assert_descents_equal_reference_around_the_pool_size(family, dim, steps):
    # a stream shorter than the pool (40 and 64 steps on 2 x 64 pooled
    # vertices, 40 on one set) gathers its rows, a longer one lists each
    # pooled vertex once
    obj = BIT_EQUALITY_OBJECTIVES[family](dim)
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(64))
    sampler = sampling.IidSampler(rf=rf, dim=dim)
    for seed in range(3):
        assert_descents_equal_reference(obj, rf, sampler, seed, 0.3, 2, steps)


@pytest.mark.parametrize("steps", [40, 64, 65])
@pytest.mark.parametrize("family", sorted(BIT_EQUALITY_OBJECTIVES))
def test_descent_equals_reference_loop_around_the_pool_size(family, steps):
    assert_descents_equal_reference_around_the_pool_size(family, 3, steps)


@pytest.mark.parametrize("steps", [40, 64, 65])
@pytest.mark.parametrize("dim", [1, 5])
@pytest.mark.parametrize("family", sorted(BIT_EQUALITY_OBJECTIVES))
def test_descent_equals_reference_loop_around_the_pool_size_in_other_dims(family, dim,
                                                                          steps):
    assert_descents_equal_reference_around_the_pool_size(family, dim, steps)


@pytest.mark.parametrize("first, second", [
    (QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0),
     QuadraticFieldObjective(3, 1.0, 0.125, 1.0, 1.0, 1.0)),
    (RippleFieldObjective(3, 1.0, 1.0, 1.0, 1 / 32, 1.0),
     RippleFieldObjective(3, 1.0, 1.0, 1.0, 1 / 8, 1.0, 2.0)),
], ids=["quadratic-gamma", "ripple-amplitude-and-frequency"])
def test_one_kernel_serves_every_constant_of_a_family(first, second):
    # the step kernel is built once per (family, dim): a constant written
    # into its source would make the second objective replay the first
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(8))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    trajectories = [assert_descents_equal_reference(obj, rf, sampler, 4, 0.3, 2).weights
                    for obj in (first, second, first)]
    for record in (False, True):
        assert sgd._kernel(first.penalty, 3, record) is sgd._kernel(second.penalty, 3, record)
    assert not np.array_equal(trajectories[0], trajectories[1])
    assert np.array_equal(trajectories[0], trajectories[2])


def shifted_rows(bound):
    """``bound`` with u copied into a C-contiguous view that starts 8 bytes
    past a 16-byte boundary: in 3 dimensions every row flips alignment."""
    raw = np.empty(bound.u.size + 2)
    start = (8 - raw.ctypes.data % 16) % 16 // 8
    u = raw[start:start + bound.u.size].reshape(bound.u.shape)
    u[...] = bound.u
    assert u.flags.c_contiguous and u.ctypes.data % 16 == 8
    return dataclasses.replace(bound, u=u)


@pytest.mark.parametrize("family", ["quadratic", "ripple"])
def test_descent_ignores_the_alignment_of_the_u_rows(family, monkeypatch):
    # a BLAS dot can round differently on operands off a 16-byte boundary
    # (OpenBLAS's SSE2 kernel does); the descent reads its rows as floats and
    # makes no BLAS call, so misaligned u rows give the reference's bits
    obj = BIT_EQUALITY_OBJECTIVES[family](3)
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(16))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    for seed in range(4):
        sets = [sampler.sample(100 * c + seed) for c in (1, 2)]
        z_i = sampler.replace(sets[0], [seed], seed=300 + seed)
        cfg = SgdConfig(step_size=0.3, steps=200, seed=seed)
        bounds = [obj.bind(z, rf) for z in sets]
        shifted = [shifted_rows(b) for b in bounds]
        for m in (1, 2):
            expected = reference_descend(bounds[:m], draw_indices(cfg, m * rf.n), cfg)
            assert np.array_equal(train(shifted[:m], cfg).weights, expected)
        weights, weights_p, _, _ = reference_coupled(sets[0], z_i, rf, obj, cfg)
        bind = obj.bind
        monkeypatch.setattr(obj, "bind", lambda z, rf: shifted_rows(bind(z, rf)))
        trace = coupled_train(sets[0], z_i, rf, obj, cfg)
        monkeypatch.undo()
        assert np.array_equal(trace.base.weights, weights)
        assert np.array_equal(trace.perturbed.weights, weights_p)


RIPPLE_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      -1.5e-310, 1e-300, 1.0, -0.75, 3.0, 1e308, -1e308)


def same_floats(a, b):
    """Equal bits, zero signs included, except that every NaN equals every
    other: a NaN's sign follows the operand order, which a compiler may swap."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return np.array_equal(nan_a, nan_b) and same_bits(np.where(nan_a, 0.0, a),
                                                      np.where(nan_b, 0.0, b))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_dot_products_are_left_to_right_sums_at_edge_values(dim):
    # u.w and w.w at signed zeros, subnormals and +-1e308, through one step
    # of the kernel (residual and projection norm; the recording kernel's
    # flat list holds w_0 then w_1, the other returns w_1), grad_uy, loss_uy
    # and losses_uy, against the plain loop `left_to_right_dot`. Products that
    # are all -0.0 sum to -0.0, which a +0.0 start would turn into +0.0, and
    # 1e16, 1.0, -1e16 sum to 0.0 left to right and to 1.0 compensated
    rng = child_rng(41, "edge-dot", dim)
    edges = np.array(RIPPLE_EDGE_VALUES)
    draws = [rng.choice(edges, size=(3, dim)) for _ in range(60)]
    draws += [rng.normal(size=(3, dim)) * 10.0 ** rng.uniform(-300, 300, size=(3, 1))
              for _ in range(30)]
    cases = [(u, float(y[0]), w) for u, y, w in draws]
    cases.append((np.full(dim, 0.75), 0.0, np.full(dim, -0.0)))
    if dim >= 3:
        cancel = np.zeros(dim)
        cancel[:3] = (1e16, 1.0, -1e16)
        assert left_to_right_dot(np.ones(dim), cancel) == 0.0
        assert math.fsum(cancel) == 1.0
        cases += [(np.ones(dim), 0.0, cancel), (cancel, 0.0, np.ones(dim))]
    us = np.array([u for u, _, _ in cases])
    ys = np.array([y for _, y, _ in cases])
    for args in [(dim, 1.0, 0.5, 1.0, 1.0), (dim, 1.0, 1.0, 1.0, None, 1.0, 4.0),
                 (dim, 1.0, 1.0, 1.0, 1e-12, 1.0, 3e5)]:
        if len(args) == 5:
            obj, ref = QuadraticFieldObjective(*args), ReferenceQuadratic(*args)
        else:
            obj = RippleFieldObjective(*args)
            ref = ReferenceRipple(*args[:4], obj.amplitude, *args[5:])
        descend, descend_final = (sgd._kernel(obj.penalty, dim, record)
                                  for record in (True, False))
        with np.errstate(all="ignore"):  # products overflow, and sin(inf) is NaN
            for u, y, w in cases:
                assert same_floats(obj.grad_uy(u, y, w), ref.grad_uy(u, y, w))
                assert same_floats(obj.loss_uy(u, y, w), ref.loss_uy(u, y, w))
                for radius in (1.0, math.inf):
                    start = tuple(w.tolist())
                    args = (obj, [(*u.tolist(), y)], 0.5, radius, radius * (1 - 1e-9), start)
                    out = descend(*args)
                    assert len(out) == 2 * dim and same_floats(out[:dim], start)
                    assert same_floats(out[dim:], project(w - 0.5 * ref.grad_uy(u, y, w), radius))
                    assert same_floats(descend_final(*args), out[dim:])
            for _, _, w in cases:
                assert same_floats(obj.losses_uy(us, ys, w), ref.losses_uy(us, ys, w))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_ripple_descent_equals_reference_ripple_gradient_bit_for_bit(dim):
    # the reference loop on the test-side ripple, whose gradient takes k.w
    # from numpy's dot and shares no code with the step kernel
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(8))
    sampler = sampling.IidSampler(rf=rf, dim=dim)
    for seed, (frequency, amplitude, step_size) in enumerate(
            [(4.0, 1 / 32, 0.3), (2.0, 1 / 8, 3.0), (7.5, None, 0.5), (0.5, 1.0, 3.0)]):
        args = (dim, 1.0, 1.0, 1.0, amplitude, 1.0, frequency)
        obj = RippleFieldObjective(*args)
        ref = ReferenceRipple(*args[:4], obj.amplitude, *args[5:])
        sets = [sampler.sample(100 * c + seed) for c in (1, 2)]
        z_i = sampler.replace(sets[0], [seed], seed=300 + seed)
        cfg = SgdConfig(step_size=step_size, steps=200, seed=seed)
        bounds = [obj.bind(z, rf) for z in (*sets, z_i)]
        on_ref = [dataclasses.replace(b, objective=ref) for b in bounds]
        for m in (1, 2):
            expected = reference_descend(on_ref[:m], draw_indices(cfg, m * rf.n), cfg)
            assert np.array_equal(train(bounds[:m], cfg).weights, expected)
        trace = coupled_train(sets[0], z_i, rf, obj, cfg)
        indices = draw_indices(cfg, rf.n)
        assert np.array_equal(trace.base.weights, reference_descend(on_ref[:1], indices, cfg))
        assert np.array_equal(trace.perturbed.weights,
                              reference_descend(on_ref[2:], indices, cfg))


def blas_independent_digests():
    """sha256 of descents, coupled deviation norms and losses_uy tables at
    dims 1, 3 and 5, keyed by family and dim."""
    digests = {}
    for dim in (1, 3, 5):
        rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(16))
        sampler = sampling.IidSampler(rf=rf, dim=dim)
        z = sampler.sample(dim)
        z_i = sampler.replace(z, [3], seed=300 + dim)
        for family, make in sorted(BIT_EQUALITY_OBJECTIVES.items()):
            obj = make(dim)
            cfg = SgdConfig(step_size=0.3, steps=200, seed=dim)
            trace = coupled_train(z, z_i, rf, obj, cfg)
            pooled = train([obj.bind(s, rf) for s in (z, z_i)], cfg).weights
            bound = obj.bind(z, rf)
            losses = np.array([bound.losses(w) for w in trace.base.weights])
            arrays = (trace.base.weights, trace.perturbed.weights, trace.delta_norms,
                      pooled, losses)
            digests[f"{family}-{dim}"] = hashlib.sha256(
                b"".join(a.tobytes() for a in arrays)).hexdigest()
    return digests


PRESCOTT_CHILD = """\
import json, sys
from grlstab import cli
from test_sgd import blas_independent_digests
assert cli.main(["run", sys.argv[1]]) == 0
print(json.dumps(blas_independent_digests()))
"""


def test_results_equal_under_openblas_prescott_kernel(tmp_path, monkeypatch):
    # a fresh process on OpenBLAS's SSE2 kernel (Prescott), whose dot rounds
    # differently from the default kernel's, gives the SGD path's bits: the
    # descents, deviation norms and loss tables, and a train job's result
    # files. Where numpy's BLAS is not OpenBLAS the variable is ignored and
    # this only compares two processes
    config = tmp_path / "train.ini"
    config.write_text("experiment = train\nseed = 11\nout = result\ngraph.kind = cycle\n"
                      "graph.n = 16\nsampler.kind = iid\nobjective = quadratic\n"
                      "objective.weight_radius = 0.15\nsgd.step_size = 0.1\nsgd.steps = 200\n"
                      "train.perturb_vertex = 3\ntrain.runs = 20\n")
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests)]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": os.pathsep.join(
        paths + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", PRESCOTT_CHILD, str(config)], cwd=there,
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(here)
    assert cli.main(["run", str(config)]) == 0
    assert json.loads(proc.stdout) == blas_independent_digests()
    ours, theirs = here / "result", there / "result"
    files = sorted(path.name for path in ours.iterdir())
    assert files == sorted(path.name for path in theirs.iterdir())
    assert "trajectory.csv" in files and "delta_stats.csv" in files
    for name in files:
        if name != "manifest.json":  # holds the wall time
            assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name


def test_train_rejects_pools_that_disagree_on_n_or_objective():
    rf, sampler, obj, z = setup_problem()
    rf_long, sampler_long, _, _ = setup_problem(n=12)
    cfg = SgdConfig(step_size=0.1, steps=20, seed=0)
    bound = obj.bind(z, rf)
    with pytest.raises(ValueError, match="disagree on N"):
        train([bound, obj.bind(sampler_long.sample(1), rf_long)], cfg)
    other = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="different objectives"):
        train([bound, other.bind(sampler.sample(1), rf)], cfg)
    train([bound, obj.bind(sampler.sample(1), rf)], cfg)


@pytest.mark.parametrize("side", [1 + 5e-10, 1 - 5e-10])
def test_descent_equals_reference_loop_at_the_sphere(side):
    # every vertex has the same objective, whose minimiser w* lies within
    # 5e-10 radius of the sphere, inside or outside: the iterates converge
    # into the band where the cheap norm cannot rule out a projection, so
    # the exact norm decides it
    rf = graphs.one_hop_receptive_fields(graphs.empty_graph(4))
    x = np.array([0.6, -0.3, 0.2])
    z = sampling.SampleSet(features=np.tile(x, (4, 1)), labels=np.full(4, 0.9), seed=0)
    u = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0).feature_scale * x
    w_star = u * 0.9 / (u.dot(u) + 0.5)
    radius = float(np.linalg.norm(w_star)) * side
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, radius)
    cfg = SgdConfig(step_size=0.5, steps=400, seed=0)
    bound = obj.bind(z, rf)
    traj = train([bound], cfg)
    weights = reference_descend([bound], traj.indices, cfg)
    assert np.array_equal(traj.weights, weights)
    norms = np.linalg.norm(weights, axis=1)
    assert np.sum((norms > radius * (1 - 1e-9)) & (norms <= radius)) > 100


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


def test_overflowing_iterate_raises_the_reference_divergence_error():
    # every gradient of the data is finite; at this step size a large one
    # overflows the iterate, the projection turns the infinity into NaN,
    # and the next gradient is the first non-finite one
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(8))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    obj = QuadraticFieldObjective(3, 50.0, 0.5, 1.0, 1.0, 1.0)
    z = sampler.sample(3)
    z_i = sampler.replace(z, [2], seed=34)
    cfg = SgdConfig(step_size=1e308, steps=50, seed=33)
    bound, bound_i = obj.bind(z, rf), obj.bind(z_i, rf)
    with np.errstate(all="ignore"):
        expected = divergence_message(reference_descend, [bound], draw_indices(cfg, rf.n), cfg)
        expected_pooled = divergence_message(reference_descend, [bound_i, bound],
                                             draw_indices(cfg, 2 * rf.n), cfg)
    assert expected != "non-finite gradient at step 0, vertex 0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert divergence_message(train, [bound], cfg) == expected
        assert divergence_message(train, [bound_i, bound], cfg) == expected_pooled
        assert divergence_message(coupled_train, z, z_i, rf, obj, cfg) == expected


@pytest.mark.parametrize("case", ["inf-feature", "overflowing-iterate"])
def test_interior_divergence_raises_the_reference_error_through_the_learner(case):
    # the harness learner reads only w_T, from the descent that records
    # nothing; a non-finite iterate at an interior step t < T stays
    # non-finite through w_T, and the recorded replay names the step
    rf, sampler, obj, z = setup_problem()
    cfg = SgdConfig(step_size=0.1, steps=50, seed=33)
    if case == "overflowing-iterate":  # every gradient of the data is finite
        obj = QuadraticFieldObjective(3, 50.0, 0.5, 1.0, 1.0, 1.0)
        z, z_bad = sampler.sample(3), sampler.sample(4)
        cfg = SgdConfig(step_size=1e308, steps=50, seed=33)
    else:
        features = z.features.copy()
        features[0, 1] = np.inf
        z_bad = sampling.SampleSet(features=features, labels=z.labels, seed=0)
    alg = sgd.SgdAlgorithm(obj, rf, cfg)
    for sets in ([z_bad], [z, z_bad]):
        bounds = [alg.prepare(s) for s in sets]
        with np.errstate(all="ignore"):
            expected = divergence_message(reference_descend, bounds,
                                          draw_indices(cfg, len(sets) * rf.n), cfg)
        step = int(expected.split("step ")[1].split(",")[0])
        assert 0 < step < cfg.steps - 1, expected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert divergence_message(alg.train, bounds) == expected


def test_index_stream_is_drawn_once_per_config_and_pool_size(monkeypatch):
    calls = []

    def counting_child_rng(*args):
        calls.append(args)
        return child_rng(*args)

    monkeypatch.setattr(sgd, "child_rng", counting_child_rng)
    cfg = SgdConfig(step_size=0.1, steps=30, seed=7)
    first = draw_indices(cfg, 16)
    assert draw_indices(cfg, 16) is first and len(calls) == 1
    assert np.array_equal(first, child_rng(7, "indices").integers(0, 16, size=30))
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0
    pooled = draw_indices(cfg, 32)
    assert draw_indices(cfg, 32) is pooled and len(calls) == 2
    # a new config with equal fields has its own memo, and draws afresh
    twin = SgdConfig(step_size=0.1, steps=30, seed=7)
    assert twin == cfg
    fresh = draw_indices(twin, 16)
    assert fresh is not first and np.array_equal(fresh, first) and len(calls) == 3
    # a learner's trainings share their config's stream
    rf, sampler, obj, z = setup_problem()
    alg = sgd.SgdAlgorithm(obj, rf, SgdConfig(step_size=0.1, steps=20, seed=8))
    bound = alg.prepare(z)
    assert np.array_equal(alg.train([bound]), alg.train([bound])) and len(calls) == 4


def projected_norms(radius, step_size):
    """math.hypot of w_1..w_4 of a 4-step cycle-6 training at this radius."""
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, radius)
    traj = train([obj.bind(sampler.sample(1), rf)], SgdConfig(step_size=step_size, steps=4, seed=1))
    return [math.hypot(*w) for w in traj.weights[1:].tolist()]


def test_projection_where_w_dot_w_overflows():
    # each step leaves the unit ball by about 1e160, so w.w overflows; the
    # scale radius / inf used to zero the iterate
    norms = projected_norms(1.0, 1e160)
    assert all(abs(norm_w - 1.0) <= 1e-12 for norm_w in norms), norms


def test_projection_where_w_dot_w_underflows():
    # w.w of iterates near 1e-180 underflows to 0, which used to rule out
    # projecting them onto the ball of radius 1e-200
    radius = 1e-200
    norms = projected_norms(radius, 1e-180)
    assert all(0.0 < norm_w <= radius * (1 + 1e-12) for norm_w in norms), norms


def test_row_norms_where_w_dot_w_leaves_the_normal_range():
    rows = np.array([[3e200, -4e200, 0.0], [1e-200, 0.0, -1e-200], [5e-324, -5e-324, 0.0],
                     [0.0, -0.0, 0.0], [0.6, -0.8, 1e-170]])
    with np.errstate(over="ignore"):
        norms = row_norms(rows)
    for row, norm_w in zip(rows.tolist(), norms.tolist()):
        assert norm_w == pytest.approx(math.hypot(*row), rel=1e-15, abs=0.0)
    # inside the normal range, the square root of the left-to-right w.w
    assert same_bits(norms[4], np.float64(math.sqrt(left_to_right_dot(rows[4], rows[4]))))
    assert same_bits(row_norms(np.array([[-1e-200], [-2.0]])), np.array([1e-200, 2.0]))


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


@pytest.mark.parametrize("seed", range(4))
def test_case_labels_match_oracle_on_irregular_graphs(seed):
    # Erdos-Renyi fields have mixed sizes; every vertex of every graph is replaced
    rf = graphs.one_hop_receptive_fields(graphs.erdos_renyi_graph(10, 0.3, seed))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    z = sampler.sample(seed)
    for vertex in range(rf.n):
        z_i = sampler.replace(z, [vertex], seed=100 + vertex)
        trace = coupled_train(z, z_i, rf, obj, SgdConfig(step_size=0.1, steps=60, seed=vertex))
        assert trace.case_labels == tuple(case_label(rf, vertex, j)
                                          for j in trace.base.indices.tolist())


def label_margins(trace, obj):
    """Envelope margins with each step's case looked up by its label."""
    cases = bounds.step_cases(obj.certificate, trace.base.config.step_size, obj.regime)
    growth, kick = np.array([cases[c] for c in trace.case_labels]).T
    d = trace.delta_norms
    return growth * d[:-1] + kick - d[1:]


@pytest.mark.parametrize("radius, alpha", [(0.15, 0.1), (1.0, 0.5), (1.0, 1.2)])
def test_envelope_strongly_convex_holds(radius, alpha):
    # the rho table holds for alpha <= 2/(lam + gamma) = 4/3 at any weight
    # radius: the same-data step contracts and one field member moves the
    # gradient by at most B_Z zeta
    n = 8
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    obj = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, radius)
    for trial in range(20):
        z = sampler.sample(trial)
        z_i = sampler.replace(z, [trial % n], seed=trial + 1000)
        trace = coupled_train(z, z_i, rf, obj,
                              SgdConfig(step_size=alpha, steps=60, seed=trial))
        report = envelope_check(trace, obj)
        assert np.array_equal(report.margins, label_margins(trace, obj))
        assert report.regime == "strongly-convex"
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
        assert np.array_equal(report.margins, label_margins(trace, obj))
        assert report.regime == "non-convex"
        assert report.ok, f"margin {report.margins.min()} at trial {trial}"


def test_nonconvex_expected_bound_dominates_fixed_data_loss_gap():
    # The expected bound at vertex i bounds the sup over data of the mean loss
    # gap over index streams, so fixed data in the closure of the iid support
    # gives a lower estimate: vertex i replaced by the box corner (+, +, +)
    # with its rule label, and a test field of (-, -, -) corners with theirs,
    # scored at vertex i over 200 pinned index streams.
    n, alpha, steps, i = 16, 0.05, 200, 0
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    obj = RippleFieldObjective(3, 1.0, 1.0, 1.0, 1 / 32, 1.0)
    half = 1.0 / np.sqrt(3)

    def rule_label(x):
        return float(np.clip(x.sum() / np.sqrt(3), -1.0, 1.0))

    z = sampler.sample(3)
    x, y = z.features.copy(), z.labels.copy()
    x[i] = half
    y[i] = rule_label(x[i])
    z_i = sampling.SampleSet(features=x, labels=y, seed=z.seed, perturbed=frozenset({i}))
    corners = np.full((n, 3), -half)
    test = obj.bind(sampling.SampleSet(features=corners, seed=0, labels=np.array(
        [rule_label(c) for c in corners])), rf)
    bound, bound_i = obj.bind(z, rf), obj.bind(z_i, rf)
    gaps = []
    for seed in range(200):
        cfg = SgdConfig(step_size=alpha, steps=steps, seed=seed)
        gaps.append(abs(test.losses(train([bound], cfg).final)[i]
                        - test.losses(train([bound_i], cfg).final)[i]))
    lower = np.mean(gaps) - 3.0 * np.std(gaps, ddof=1) / np.sqrt(len(gaps))

    params = bounds.SgdBoundParams(certificate=obj.certificate, step_size=alpha, steps=steps,
                                   n_vertices=n, field_sizes=rf.sizes, regime=obj.regime)
    growth, kick = bounds.recursion_constants(params)
    assert lower <= bounds.expected_stability_bound(params, i)
    # a growth without the 1 +, (N - 1)/N * alpha * lam < 1, would claim that
    # deviations contract; the measured gap exceeds that bound
    contracting = obj.certificate.lipschitz * kick[i] * bounds.geometric_series(
        growth[i] - 1.0, steps)
    assert lower > contracting


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
