import tracemalloc

import numpy as np
import pytest

from grlstab import gnn, graphs
from grlstab.sampling import rows_in_ball
from grlstab.seeding import child_rng

from gnn_oracles import (SupportError, feature_sup_box_edges, fit_exact_rowwise,
                         full_objective_gradient, gnn_objective)


def use_fit(monkeypatch, solver):
    """Make gnn_stability_experiment and its reference loop fit with the
    rowwise oracle when solver is "rowwise"; both look up
    gnn.fit_projected_closed_form at call time."""
    if solver == "rowwise":
        monkeypatch.setattr(gnn, "fit_projected_closed_form", fit_exact_rowwise)


def full_mask_problem(y, v_target, ridge=1.0, n=2):
    # features = identity rows scaled so X w = v_target
    x = np.eye(n)
    w = np.asarray(v_target, dtype=float)
    return gnn.GnnProblem(features=x, labels=np.asarray(y, dtype=float), weight=w,
                          mask=np.ones((n, n), dtype=bool), ridge=ridge,
                          b_w=float(np.linalg.norm(w)) + 1.0)


def random_problem(rng, rf, dim=3, ridge=0.8):
    n = rf.n
    x = rng.normal(size=(n, dim))
    x /= np.maximum(1.0, np.linalg.norm(x, axis=1, keepdims=True))
    y = rng.uniform(-1, 1, size=n)
    w = rng.normal(size=dim)
    w *= 0.8 / np.linalg.norm(w)
    return gnn.GnnProblem(features=x, labels=y, weight=w,
                          mask=rf.mask, ridge=ridge)


def test_zero_labels_zero_solution():
    p = full_mask_problem([0.0, 0.0], [1.0, 1.0])
    assert not gnn.fit_projected_closed_form(p).any()


def test_hand_computed_closed_form():
    # v = (1, 1), y = (1, 0), ridge 1: A~ = y v' / 3
    p = full_mask_problem([1.0, 0.0], [1.0, 1.0])
    a = gnn.fit_projected_closed_form(p)
    assert np.allclose(a, [[1 / 3, 1 / 3], [0, 0]])
    # the rank-one identity reproduces the explicit 2x2 inverse
    v = np.array([1.0, 1.0])
    m = np.outer(v, v) + np.eye(2)
    direct = np.outer(p.labels, v) @ np.linalg.inv(m)
    assert np.allclose(a, direct)


def test_masked_entries_exactly_zero():
    rng = child_rng(0, "mask")
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    p = random_problem(rng, rf)
    for fit in (gnn.fit_projected_closed_form, fit_exact_rowwise):
        a = fit(p)
        assert np.all(a[~p.mask] == 0.0)


def test_full_mask_solvers_coincide():
    rng = child_rng(1, "full")
    n = 5
    rf = graphs.one_hop_receptive_fields(graphs.complete_graph(n))
    p = random_problem(rng, rf)
    a1 = gnn.fit_projected_closed_form(p)
    a2 = fit_exact_rowwise(p)
    assert np.allclose(a1, a2, atol=1e-12)


def test_singleton_row_mask_scalar_ridge():
    # row's field = {i} only: A~_ii = y_i v_i / (ridge + v_i^2)
    rf = graphs.one_hop_receptive_fields(graphs.empty_graph(3))
    rng = child_rng(2, "singleton")
    p = random_problem(rng, rf, ridge=0.5)
    a = fit_exact_rowwise(p)
    v = p.v
    for i in range(3):
        assert a[i, i] == pytest.approx(p.labels[i] * v[i] / (0.5 + v[i] ** 2))
        assert np.all(a[i, np.arange(3) != i] == 0.0)


def test_objective_zero_solution_value():
    rng = child_rng(3, "objzero")
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(5))
    p = random_problem(rng, rf)
    assert gnn_objective(p, np.zeros((5, 5))) == pytest.approx(0.5 * p.labels @ p.labels)


def test_objective_rejects_support_violation():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(5))
    rng = child_rng(4, "viol")
    p = random_problem(rng, rf)
    bad = np.zeros((5, 5))
    bad[0, 2] = 1.0  # vertex 2 outside Xi(0) on a 5-cycle
    with pytest.raises(SupportError):
        gnn_objective(p, bad)


def masked_objective_gradient(p, a):
    """Pi o [ -y v' + A~ (v v' + gamma I) ], the masked first-order condition."""
    return np.where(p.mask, full_objective_gradient(p, a), 0.0)


def test_rowwise_first_order_condition_and_fd():
    rng = child_rng(5, "stationary")
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    p = random_problem(rng, rf)
    a = fit_exact_rowwise(p)
    masked = masked_objective_gradient(p, a)
    assert np.abs(masked).max() <= 1e-10
    # finite-difference check of a few masked coordinates
    for i, j in [(0, 0), (0, 1), (3, 2)]:
        if not p.mask[i, j]:
            continue
        step = 1e-6
        up = a.copy()
        up[i, j] += step
        down = a.copy()
        down[i, j] -= step
        fd = (gnn_objective(p, up) - gnn_objective(p, down)) / (2 * step)
        assert abs(fd) <= 1e-8


def test_full_mask_projected_solution_stationary():
    rng = child_rng(6, "fullgrad")
    rf = graphs.one_hop_receptive_fields(graphs.complete_graph(5))
    p = random_problem(rng, rf)
    a = gnn.fit_projected_closed_form(p)
    assert np.linalg.norm(full_objective_gradient(p, a)) <= 1e-10


def test_oracle_dominance_on_masked_instances():
    rng = child_rng(7, "dominance")
    for trial in range(50):
        g = graphs.erdos_renyi_graph(7, 0.4, trial)
        rf = graphs.one_hop_receptive_fields(g)
        p = random_problem(rng, rf)
        obj_row = gnn_objective(p, fit_exact_rowwise(p))
        obj_proj = gnn_objective(p, gnn.fit_projected_closed_form(p))
        assert obj_row <= obj_proj + 1e-12


def test_homogeneity_in_labels():
    rng = child_rng(8, "homog")
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    p = random_problem(rng, rf)
    c = 0.37
    scaled = gnn.GnnProblem(features=p.features, labels=c * p.labels, weight=p.weight,
                            mask=p.mask, ridge=p.ridge)
    for fit in (gnn.fit_projected_closed_form, fit_exact_rowwise):
        assert np.allclose(fit(scaled), c * fit(p))


def test_mask_projection_idempotent():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    mask = rf.mask
    rng = child_rng(9, "idem")
    a = rng.normal(size=(6, 6))
    once = np.where(mask, a, 0.0)
    twice = np.where(mask, once, 0.0)
    assert np.array_equal(once, twice)


def test_projected_features_cached_once_with_unchanged_bits():
    # v = X w is computed once per problem; every consumer gets the bits it
    # got when each one recomputed features @ weight itself
    rng = child_rng(17, "vcache")
    rf = graphs.one_hop_receptive_fields(graphs.erdos_renyi_graph(9, 0.4, 3))
    p = random_problem(rng, rf)
    assert "v" not in vars(p)
    assert p.v is p.v
    v = p.features @ p.weight
    assert np.array_equal(p.v, v)

    a = np.where(p.mask, np.outer(p.labels, v) / (p.ridge + float(v @ v)), 0.0)
    fit = gnn.fit_projected_closed_form(p)
    assert np.array_equal(fit, a)
    a_row = np.zeros((p.n, p.n))
    for i in range(p.n):
        row = p.mask[i]
        a_row[i, row] = p.labels[i] * v[row] / (p.ridge + float(np.sum(v[row] ** 2)))
    row_fit = fit_exact_rowwise(p)
    assert np.array_equal(row_fit, a_row)
    for s in (fit, row_fit):
        resid = p.labels - s @ v
        value = float(0.5 * resid @ resid + 0.5 * p.ridge * np.sum(s * s))
        assert gnn_objective(p, s) == value
        grad = -np.outer(p.labels, v) + (s @ v)[:, None] * v[None, :] + p.ridge * s
        assert np.array_equal(full_objective_gradient(p, s), grad)


# ---------------------------------------------------------------------------
# Stability experiments


def reference_test_feature_candidates(rng, n, dim, b_x, weight, pairs, n_draws):
    """Test feature sets: Monte Carlo draws, then sign corners of the leading rows.

    Corners set every row to +-b_x along the weight, with the signs of a
    leading row (at least a quarter of the largest norm, at most eight) of
    each fitted difference or sum. No candidate can beat an exact sup.
    """
    cands = [rows_in_ball(rng, n, dim, b_x) for _ in range(n_draws)]
    wn = float(np.linalg.norm(weight))
    if wn == 0.0:
        return cands
    unit = weight / wn
    for delta, summed in pairs:
        norms = np.linalg.norm(delta, axis=1)
        top = float(norms.max())
        if top == 0.0:
            continue
        rows = np.nonzero(norms >= 0.25 * top)[0]
        rows = rows[np.argsort(norms[rows])[::-1][:8]]
        for j in rows:
            for source in (delta[j], summed[j]):
                if np.any(source != 0.0):
                    signs = np.where(source >= 0.0, 1.0, -1.0)
                    cands.append(np.outer(signs, b_x * unit))
    return cands


def reference_gnn_stability_experiment(rf, kind, trials, eps_feature, seed,
                                       n_test_draws=32, ridge=1.0,
                                       b_x=1.0, b_y=1.0, b_w=1.0, dim=3):
    """Per-candidate loop over fits, test draws and sign corners.

    It pins label mode's bits, whose one corner per vertex attains the sup
    over test features, and lower-bounds feature mode, whose draws and
    corners sample that sup. Returns (beta1_i, beta2_i).
    """
    fit = gnn.fit_projected_closed_form
    mask = rf.mask
    n = rf.n
    beta1_i = np.zeros(n)
    beta2_i = np.zeros(n)
    outside = [rf.outside(i) for i in range(n)]

    for trial in range(trials):
        rng = child_rng(seed, "gnn-trial", trial)
        base_radius = b_x - eps_feature if kind == gnn.FEATURE_MODE else b_x
        x = rows_in_ball(rng, n, dim, base_radius)
        y = rng.uniform(-b_y, b_y, size=n)
        w = rows_in_ball(rng, 1, dim, b_w)[0]
        base = gnn.GnnProblem(features=x, labels=y, weight=w, mask=mask, ridge=ridge,
                              b_x=b_x, b_y=b_y, b_w=b_w)
        a_base = fit(base)

        for i in range(n):
            perturbed = []
            if kind == gnn.LABEL_MODE:
                for endpoint in (-b_y, b_y):
                    y_p = y.copy()
                    y_p[i] = endpoint
                    perturbed.append(gnn.GnnProblem(features=x, labels=y_p, weight=w,
                                                    mask=mask, ridge=ridge,
                                                    b_x=b_x, b_y=b_y, b_w=b_w))
            else:
                wn = float(np.linalg.norm(w))
                bump = (w / wn if wn > 0 else np.eye(dim)[0]) * eps_feature
                x_p = x.copy()
                x_p[i] = x_p[i] + bump
                perturbed.append(gnn.GnnProblem(features=x_p, labels=y, weight=w,
                                                mask=mask, ridge=ridge,
                                                b_x=b_x, b_y=b_y, b_w=b_w))

            fits = [fit(q) for q in perturbed]
            pairs = [(a_p - a_base, a_p + a_base) for a_p in fits]
            cands = reference_test_feature_candidates(rng, n, dim, b_x, w, pairs,
                                                      n_test_draws)
            for x_test in cands:
                vt = x_test @ w
                p_base = a_base @ vt
                for a_p in fits:
                    sup_y = gnn._loss_diff_sup_label(p_base, a_p @ vt, b_y)
                    beta2_i[i] = max(beta2_i[i], float(sup_y.max()))
                    if outside[i].size:
                        beta1_i[i] = max(beta1_i[i], float(sup_y[outside[i]].max()))
    return beta1_i, beta2_i


def assert_matches_reference(rf, kind, seed, trials=1, n_test_draws=32, **kwargs):
    """Label mode equals the reference loop bit for bit; feature mode's exact
    sup is at least the loop's draws and corners on every vertex.

    The draws are the reference's own; the experiment has none.
    """
    eps = 0.05 if kind == gnn.FEATURE_MODE else 0.0
    res = gnn.gnn_stability_experiment(rf, kind, trials, eps, seed, **kwargs)
    ref = reference_gnn_stability_experiment(rf, kind, trials, eps, seed,
                                             n_test_draws=n_test_draws, **kwargs)
    for got, expected in zip((res.beta1_i, res.beta2_i), ref):
        if kind == gnn.LABEL_MODE:
            assert np.array_equal(got, expected)
        else:
            assert (got >= expected * (1.0 - 1e-12)).all()
    return res


def feature_sup_case(case):
    """(d, s, radius, b_y) for one oracle case: random rows, then degenerate ones."""
    rng = child_rng(32, "feature-sup", case)
    n = int(rng.integers(1, 9))
    d, s = rng.normal(size=(2, 4, n))
    radius, b_y = (float(t) for t in rng.uniform(0.1, 2.0, size=2))
    if case == "zero-rows":
        d[0], s[1], d[2], s[2] = 0.0, 0.0, 0.0, 0.0
    elif case == "collinear":
        s[0], s[1], s[2] = 2.5 * d[0], -0.3 * d[1], 0.0 * d[2]
        d[3] = s[3]
    elif case == "zero-columns":
        d[:, 0], s[:, -1] = 0.0, 0.0
    elif case == "b_y-0":
        b_y = 0.0
    elif case == "radius-0":
        radius = 0.0
    elif case == "n-1":
        d, s = d[:, :1], s[:, :1]
    return d, s, radius, b_y


@pytest.mark.parametrize("case", [*range(12), "zero-rows", "collinear", "zero-columns",
                                  "b_y-0", "radius-0", "n-1"])
def test_feature_sup_matches_box_edge_oracle(case):
    # the zonotope walk against every edge of the box [-R, R]^n, n <= 8
    d, s, radius, b_y = feature_sup_case(case)
    got = gnn._feature_sup(d, s, radius, b_y)
    np.testing.assert_allclose(got, feature_sup_box_edges(d, s, radius, b_y),
                               rtol=1e-12, atol=0.0)
    assert got.any() == (radius > 0.0)


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_feature_sup_bounds_ball_draws(density):
    # 2000 Monte Carlo test feature sets, each evaluated through a @ (X' @ w)
    # for the base and the bumped fit, never exceed the exact sup
    n, dim, eps = 12, 3, 0.05
    rf = gnn.density_mask_fields(n, density, seed=n)
    rng = child_rng(33, "ball-draws", density)
    p = gnn.GnnProblem(features=rows_in_ball(rng, n, dim, 1.0 - eps),
                       labels=rng.uniform(-1.0, 1.0, size=n),
                       weight=rows_in_ball(rng, 1, dim, 1.0)[0], mask=rf.mask, ridge=0.8)
    bump = eps * p.weight / np.linalg.norm(p.weight)
    a = gnn.fit_projected_closed_form(p)
    for i in (0, 5):
        a_p = gnn.fit_projected_closed_form(p.with_feature_row(i, p.features[i] + bump))
        sup = gnn._feature_sup(a_p - a, a_p + a, p.b_x * np.linalg.norm(p.weight), p.b_y)
        vt = np.array([rows_in_ball(rng, n, dim, p.b_x) @ p.weight for _ in range(2000)])
        drawn = gnn._loss_diff_sup_label(vt @ a.T, vt @ a_p.T, p.b_y)
        assert (drawn <= sup * (1.0 + 1e-12)).all()


@pytest.mark.parametrize("kind", [gnn.LABEL_MODE, gnn.FEATURE_MODE])
@pytest.mark.parametrize("solver", ["projected", "rowwise"])
@pytest.mark.parametrize("n, density", [(32, 0.05), (48, 0.2), (64, 0.5), (40, 0.8),
                                        (7, 0.4), (13, 0.3), (1, 0.5), (2, 1.0), (3, 0.5),
                                        (9, 0.0), (20, 0.0)])
def test_batched_candidates_bit_equal_reference_loop(kind, solver, n, density, monkeypatch):
    # n = 7 and 13 are not multiples of a BLAS row block, so the matrix-vector
    # kernels take their remainder paths; label mode still reads only row i.
    # At density 0 every mask row holds only its own vertex. Feature mode is
    # checked against the reference's 6 draws and its corners per vertex.
    use_fit(monkeypatch, solver)
    rf = gnn.density_mask_fields(n, density, seed=n)
    res = assert_matches_reference(rf, kind, seed=100 + n, trials=2, n_test_draws=6)
    assert res.beta2 > 0.0


@pytest.mark.parametrize("kind", [gnn.LABEL_MODE, gnn.FEATURE_MODE])
def test_batched_candidates_full_density_bit_equal(kind):
    # density 1.0: every outside(i) is empty, so beta1_i stays 0
    rf = gnn.density_mask_fields(32, 1.0, seed=4)
    assert all(rf.outside(i).size == 0 for i in range(rf.n))
    res = assert_matches_reference(rf, kind, seed=21, n_test_draws=4)
    assert not res.beta1_i.any()


@pytest.mark.parametrize("kind", [gnn.LABEL_MODE, gnn.FEATURE_MODE])
@pytest.mark.parametrize("n_test_draws", [0, 3])
def test_batched_candidates_zero_weight_bit_equal(kind, n_test_draws):
    # b_w = 0: the weight is zero, so every test projection is 0 and the
    # betas stay untouched, with or without the reference's draws
    rf = gnn.density_mask_fields(32, 0.2, seed=5)
    res = assert_matches_reference(rf, kind, seed=22, n_test_draws=n_test_draws, b_w=0.0)
    assert not res.beta2_i.any()


@pytest.mark.parametrize("kind", [gnn.LABEL_MODE, gnn.FEATURE_MODE])
def test_batched_candidates_corners_only_bit_equal(kind):
    # the reference with no draws, so its corners alone: the experiment meets
    # them in label mode and reaches at least them in feature mode
    rf = gnn.density_mask_fields(32, 0.2, seed=6)
    res = assert_matches_reference(rf, kind, seed=23, n_test_draws=0)
    assert res.beta2 > 0.0



@pytest.mark.parametrize("solver", ["projected", "rowwise"])
def test_label_mode_underflowing_difference_is_skipped(solver, monkeypatch):
    # ridge 1e300 makes every fitted difference so small that its squares,
    # and so its row norm, underflow to 0: the reference loop makes no
    # corner for it, and neither does the row-i rule (no Monte Carlo sets
    # either, so nothing else reaches the tiny gaps)
    use_fit(monkeypatch, solver)
    rf = gnn.density_mask_fields(12, 0.4, seed=7)
    res = assert_matches_reference(rf, gnn.LABEL_MODE, seed=27, trials=2, n_test_draws=0,
                                   ridge=1e300)
    assert not res.beta2_i.any()


@pytest.mark.parametrize("solver", ["projected", "rowwise"])
def test_label_mode_draws_change_nothing(solver, monkeypatch):
    # label mode evaluates the sign corners only; the reference loop, which
    # also draws 32 Monte Carlo sets per vertex, reaches the same bits
    use_fit(monkeypatch, solver)
    rf = gnn.density_mask_fields(40, 0.3, seed=9)
    assert_matches_reference(rf, gnn.LABEL_MODE, seed=24, trials=2, n_test_draws=32)


@pytest.mark.parametrize("solver", ["projected", "rowwise"])
@pytest.mark.parametrize("case", range(4))
def test_label_mode_beta2_is_sign_corner_closed_form(solver, case, monkeypatch):
    # beta2_i = max_e |e - y_i| c T (|e + y_i| c T + 2 b_y), T = b_x ||w|| sum_k |m_k|,
    # m = mask_i o v, c the fit's row-i denominator
    use_fit(monkeypatch, solver)
    draw = child_rng(30, "closed-form", case)
    n = int(draw.integers(8, 41))
    density = float(draw.uniform(0.05, 1.0))
    ridge, b_x, b_y, b_w = (float(t) for t in draw.uniform(0.2, 2.0, size=4))
    rf = gnn.density_mask_fields(n, density, seed=case)
    seed, trials, dim = 40 + case, 2, 3
    res = gnn.gnn_stability_experiment(rf, gnn.LABEL_MODE, trials, 0.0, seed,
                                       ridge=ridge, b_x=b_x, b_y=b_y, b_w=b_w, dim=dim)
    mask = rf.mask
    expected = np.zeros(n)
    for trial in range(trials):
        rng = child_rng(seed, "gnn-trial", trial)
        x = rows_in_ball(rng, n, dim, b_x)
        y = rng.uniform(-b_y, b_y, size=n)
        w = rows_in_ball(rng, 1, dim, b_w)[0]
        v = x @ w
        m = np.where(mask, v, 0.0)
        if solver == "projected":
            c = np.full(n, 1.0 / (ridge + v @ v))
        else:
            c = 1.0 / (ridge + np.sum(m * m, axis=1))
        t = b_x * np.linalg.norm(w) * np.abs(m).sum(axis=1)
        for e in (-b_y, b_y):
            value = np.abs(e - y) * c * t * (np.abs(e + y) * c * t + 2.0 * b_y)
            expected = np.maximum(expected, value)
    np.testing.assert_allclose(res.beta2_i, expected, rtol=1e-12, atol=0.0)
    assert not res.beta1_i.any()


@pytest.mark.parametrize("solver", ["projected", "rowwise"])
def test_label_mode_vertices_without_corners_bit_equal(solver, monkeypatch):
    # isolated vertex 4 gets feature row 0, so v_4 = 0 and its fits never move
    # row 4: it has no corner, while every other vertex of the batch has some
    use_fit(monkeypatch, solver)
    draw = rows_in_ball

    def zero_row_4(rng, n, dim, radius):
        x = draw(rng, n, dim, radius)
        if n == 9:
            x[4] = 0.0
        return x

    monkeypatch.setattr(gnn, "rows_in_ball", zero_row_4)
    monkeypatch.setitem(globals(), "rows_in_ball", zero_row_4)  # the reference loop's
    rf = graphs.one_hop_receptive_fields(
        graphs.build_graph(9, [(0, 1), (1, 2), (2, 3), (5, 6)]))
    res = assert_matches_reference(rf, gnn.LABEL_MODE, seed=28, trials=2, n_test_draws=0)
    assert res.beta2_i[4] == 0.0 and np.delete(res.beta2_i, 4).all()


@pytest.mark.parametrize("solver", ["projected", "rowwise"])
@pytest.mark.parametrize("n, block", [(130, None), (13, 13 * 3)])
def test_label_mode_blocks_bit_equal(solver, n, block, monkeypatch):
    # the vertices span several blocks, the last one shorter: at the default
    # cap n = 130 runs 126 + 4 vertices, the small cap 3 + 3 + 3 + 3 + 1
    use_fit(monkeypatch, solver)
    if block is not None:
        monkeypatch.setattr(gnn, "LABEL_BLOCK", block)
    step = gnn.LABEL_BLOCK // n
    assert step < n and n % step
    rf = gnn.density_mask_fields(n, 0.3, seed=n)
    assert_matches_reference(rf, gnn.LABEL_MODE, seed=70 + n, trials=2, n_test_draws=0)


@pytest.mark.parametrize("solver", ["projected", "rowwise"])
@pytest.mark.parametrize("n, density, ridge, b_x, b_y, b_w", [
    (1, 0.5, 1.0, 1.0, 1.0, 1.0), (2, 1.0, 0.3, 0.8, 1.5, 1.2), (5, 0.0, 1.0, 1.0, 1.0, 1.0),
    (7, 0.4, 0.05, 1.0, 0.7, 2.0), (9, 0.6, 4.0, 1.3, 1.0, 0.5), (10, 1.0, 1.0, 1.0, 1.0, 1.0),
    (10, 0.3, 0.7, 0.9, 1.1, 1.0), (6, 0.5, 1.0, 1.0, 1.0, 0.0)])
def test_label_mode_beta2_is_sup_over_every_test_corner(solver, n, density, ridge, b_x, b_y,
                                                        b_w, monkeypatch):
    # the loss difference is convex in v' = X' w over the box |v'_k| <= b_x ||w||,
    # so its sup over test features sits at one of the 2^n corners; at every
    # vertex and both endpoints, the max over all of them (and every test
    # vertex) is the experiment's beta2_i
    use_fit(monkeypatch, solver)
    fit = gnn.fit_projected_closed_form
    rf = gnn.density_mask_fields(n, density, seed=n)
    seed, dim = 90 + n, 3
    res = gnn.gnn_stability_experiment(rf, gnn.LABEL_MODE, 1, 0.0, seed, ridge=ridge,
                                       b_x=b_x, b_y=b_y, b_w=b_w, dim=dim)
    rng = child_rng(seed, "gnn-trial", 0)
    x = rows_in_ball(rng, n, dim, b_x)
    y = rng.uniform(-b_y, b_y, size=n)
    w = rows_in_ball(rng, 1, dim, b_w)[0]

    def problem(labels):
        return gnn.GnnProblem(features=x, labels=labels, weight=w, mask=rf.mask,
                              ridge=ridge, b_x=b_x, b_y=b_y, b_w=b_w)

    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * n, indexing="ij")).reshape(n, -1)
    vt = b_x * np.linalg.norm(w) * corners  # (n, 2^n) test projections
    p_base = fit(problem(y)) @ vt
    expected = np.zeros(n)
    for i in range(n):
        for e in (-b_y, b_y):
            y_p = y.copy()
            y_p[i] = e
            sup_y = gnn._loss_diff_sup_label(p_base, fit(problem(y_p)) @ vt, b_y)
            expected[i] = max(expected[i], float(sup_y.max()))
    assert (res.beta2_i > 0.0).all() == (b_w > 0.0)
    np.testing.assert_allclose(res.beta2_i, expected, rtol=1e-12, atol=0.0)


def test_label_trial_memory_stays_below_eight_n_squared_doubles():
    # one trial at n = 256 holds the base fit, the two composites of fitted
    # rows and one block of corners; a whole-trial batch of corners would
    # hold (4 n, n) arrays, about 14.5 MiB here
    n = 256
    rf = gnn.density_mask_fields(n, 0.2, seed=3)
    tracemalloc.start()
    try:
        gnn.gnn_stability_experiment(rf, gnn.LABEL_MODE, 1, 0.0, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n * np.dtype(float).itemsize


@pytest.mark.parametrize("kind, fits_per_vertex", [(gnn.LABEL_MODE, 2), (gnn.FEATURE_MODE, 1)])
@pytest.mark.parametrize("case", ["erdos-renyi", "isolated", "zero-weight"])
def test_every_perturbed_problem_is_fitted(kind, fits_per_vertex, case, monkeypatch):
    # trials * (fits_per_vertex * n + 1) fits per experiment: one base fit per
    # trial and one per perturbed problem, even when the fit moves nothing
    # (zero weight) or the vertex has no neighbours
    fitted = []
    fit = gnn.fit_projected_closed_form

    def counting_fit(p):
        fitted.append(p)
        return fit(p)

    monkeypatch.setattr(gnn, "fit_projected_closed_form", counting_fit)
    if case == "isolated":
        # vertices 4, 7 and 8 have no neighbours: their mask rows hold only themselves
        rf = graphs.one_hop_receptive_fields(
            graphs.build_graph(9, [(0, 1), (1, 2), (2, 3), (5, 6)]))
        assert [len(field) for field in rf.xi].count(1) == 3
    else:
        rf = gnn.density_mask_fields(11, 0.3, seed=2)
    eps = 0.05 if kind == gnn.FEATURE_MODE else 0.0
    trials = 3
    res = gnn.gnn_stability_experiment(rf, kind, trials, eps, seed=26,
                                       b_w=0.0 if case == "zero-weight" else 1.0)
    assert len(fitted) == trials * (fits_per_vertex * rf.n + 1)
    assert (res.beta2 == 0.0) == (case == "zero-weight")


NAN = float("nan")


@pytest.mark.parametrize("kind, bad, name", [
    (gnn.LABEL_MODE, {"ridge": NAN}, "ridge"),
    (gnn.LABEL_MODE, {"ridge": float("inf")}, "ridge"),
    (gnn.LABEL_MODE, {"ridge": 0.0}, "ridge"),
    (gnn.FEATURE_MODE, {"ridge": NAN}, "ridge"),
    (gnn.LABEL_MODE, {"b_w": NAN}, "b_w"),
    (gnn.LABEL_MODE, {"b_w": float("inf")}, "b_w"),
    (gnn.LABEL_MODE, {"b_w": -0.5}, "b_w"),
    (gnn.FEATURE_MODE, {"b_w": NAN}, "b_w"),
    (gnn.FEATURE_MODE, {"eps_feature": NAN}, "eps_feature"),
    (gnn.FEATURE_MODE, {"eps_feature": -0.01}, "eps_feature"),
    (gnn.FEATURE_MODE, {"eps_feature": -float("inf")}, "eps_feature"),
], ids=lambda v: repr(v) if isinstance(v, dict) else str(v))
def test_experiment_rejects_non_finite_or_out_of_range_parameters(kind, bad, name):
    # NaN passes a plain `<= 0` check; unchecked it ran to beta1 = beta2 = 0
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(5))
    args = {"eps_feature": 0.05, **bad}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        gnn.gnn_stability_experiment(rf, kind, trials=1, seed=0, **args)


@pytest.mark.parametrize("bad, name", [
    ({"ridge": NAN}, "ridge"),
    ({"ridge": float("inf")}, "ridge"),
    ({"ridge": 0.0}, "ridge"),
    ({"b_x": NAN}, "b_x"),
    ({"b_x": float("inf")}, "b_x"),
    ({"b_y": NAN}, "b_y"),
    ({"b_y": -float("inf")}, "b_y"),
    ({"b_w": NAN}, "b_w"),
    ({"b_w": float("inf")}, "b_w"),
    ({"b_w": -0.5}, "b_w"),
], ids=lambda v: repr(v) if isinstance(v, dict) else str(v))
def test_problem_rejects_non_finite_or_out_of_range_parameters(bad, name):
    # unchecked, ridge = nan fitted an all-NaN A~ and ridge = inf fitted A~ = 0
    p = random_problem(child_rng(26, "params"), graphs.one_hop_receptive_fields(
        graphs.cycle_graph(5)))
    args = {"features": p.features, "labels": p.labels, "weight": p.weight,
            "mask": p.mask, "ridge": p.ridge, **bad}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        gnn.GnnProblem(**args)


@pytest.mark.parametrize("field, message", [
    ("features", "feature row norm exceeds b_x"),
    ("labels", "label magnitude exceeds b_y"),
    ("weight", "weight norm exceeds b_w"),
])
def test_problem_rejects_nan_entries(field, message):
    # NaN fails every `<=` bound check; a `>` check let it through, and a NaN
    # feature row fitted to a NaN row of A~
    p = random_problem(child_rng(29, "nan-entries"), graphs.one_hop_receptive_fields(
        graphs.cycle_graph(5)))
    args = {"features": p.features, "labels": p.labels, "weight": p.weight,
            "mask": p.mask, "ridge": p.ridge}
    args[field] = args[field].copy()
    args[field].flat[1] = NAN
    with pytest.raises(ValueError, match=message):
        gnn.GnnProblem(**args)


@pytest.mark.parametrize("derive, message", [
    (lambda p: p.label_row(0, NAN), "label magnitude exceeds b_y"),
    (lambda p: p.with_feature_row(0, [NAN, 0.0, 0.0]), "feature row norm exceeds b_x"),
], ids=["label_row", "with_feature_row"])
def test_derived_problems_reject_nan_entries(derive, message):
    p = random_problem(child_rng(29, "nan-derived"), graphs.one_hop_receptive_fields(
        graphs.cycle_graph(5)))
    with pytest.raises(ValueError, match=message):
        derive(p)


def test_derived_problems_check_only_replaced_entries():
    rng = child_rng(25, "derived")
    rf = gnn.density_mask_fields(12, 0.4, seed=3)
    p = random_problem(rng, rf)
    labels = p.labels.copy()
    with pytest.raises(ValueError, match="b_y"):
        p.label_row(2, 1.5)
    with pytest.raises(ValueError, match="b_x"):
        p.with_feature_row(2, [1.2, 0.0, 0.0])
    with pytest.raises(ValueError, match="feature columns"):
        p.with_feature_row(2, [0.1, 0.1])

    q = p.label_row(2, -1.0)
    assert q.v is p.v and q.features is p.features and q.denominator == p.denominator
    assert np.shares_memory(q.mask, p.mask) and np.array_equal(q.mask, p.mask[2:3])
    assert np.array_equal(p.labels, labels) and np.array_equal(q.labels, [-1.0])
    y_q = labels.copy()
    y_q[2] = -1.0
    row = p.features[5] + 0.05 * p.weight / np.linalg.norm(p.weight)
    r = p.with_feature_row(5, row)
    assert r.labels is p.labels and r.mask is p.mask
    assert "v" not in vars(r) and "denominator" not in vars(r)
    # q fits row 2 only; r fits every row
    for derived, fresh_labels, rows in ((q, y_q, slice(2, 3)), (r, p.labels, slice(None))):
        fresh = gnn.GnnProblem(features=derived.features, labels=fresh_labels,
                               weight=p.weight, mask=p.mask, ridge=p.ridge)
        assert np.array_equal(derived.v, fresh.v)
        for fit in (gnn.fit_projected_closed_form, fit_exact_rowwise):
            assert np.array_equal(fit(derived), fit(fresh)[rows])


@pytest.mark.parametrize("solver", ["projected", "rowwise"])
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 9, 64])
def test_label_row_fit_is_row_of_full_fit(solver, density, n):
    # a label row problem fits one (1, n) row with the bits of row i of the
    # freshly validated full problem's fit, for every vertex and endpoint
    fit = gnn.fit_projected_closed_form if solver == "projected" else fit_exact_rowwise
    rf = gnn.density_mask_fields(n, density, seed=n)
    p = random_problem(child_rng(31, "label-row", n), rf)
    for i in range(n):
        for value in (-p.b_y, p.b_y):
            row_fit = fit(p.label_row(i, value))
            y = p.labels.copy()
            y[i] = value
            fresh = gnn.GnnProblem(features=p.features, labels=y, weight=p.weight,
                                   mask=p.mask, ridge=p.ridge)
            assert row_fit.shape == (1, n)
            assert np.array_equal(row_fit, fit(fresh)[i:i + 1])


def test_null_label_perturbation_zero_difference():
    # replacing y_i with its own value changes nothing
    rng = child_rng(10, "null")
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(5))
    p = random_problem(rng, rf)
    a = gnn.fit_projected_closed_form(p)
    same = gnn.GnnProblem(features=p.features, labels=p.labels.copy(), weight=p.weight,
                          mask=p.mask, ridge=p.ridge)
    a2 = gnn.fit_projected_closed_form(same)
    assert np.array_equal(a, a2)


def test_label_perturbation_difference_row_support():
    rng = child_rng(11, "rowsupp")
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    p = random_problem(rng, rf)
    a = gnn.fit_projected_closed_form(p)
    i = 2
    y2 = p.labels.copy()
    y2[i] = 1.0
    p2 = gnn.GnnProblem(features=p.features, labels=y2, weight=p.weight,
                        mask=p.mask, ridge=p.ridge)
    delta = gnn.fit_projected_closed_form(p2) - a
    rows = np.unique(np.nonzero(delta)[0])
    assert np.array_equal(rows, [i])


def test_feature_mode_first_order_support():
    # with v_i = 0 before the bump, off-field deltas are O(eps^2) while the
    # in-field effect is O(eps): slope of beta1 in log-log near 2, beta2 near 1
    n = 8
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    mask = rf.mask
    rng = child_rng(12, "firstorder")
    w = np.array([1.0, 0.0, 0.0])
    x = np.zeros((n, 3))
    x[:, 1] = rng.uniform(-0.9, 0.9, size=n)  # rows orthogonal to w, v = 0...
    x[0, 0] = 0.5  # except vertex 0 so v is not identically zero
    y = rng.uniform(-1, 1, size=n)
    i = 4  # bumped vertex, x_i . w = 0
    eps_values = [0.02, 0.04, 0.08]
    beta1_vals, beta2_vals = [], []
    x_test = rng.normal(size=(n, 3))
    x_test /= np.maximum(1.0, np.linalg.norm(x_test, axis=1, keepdims=True))
    vt = x_test @ w
    outside = rf.outside(i)
    for eps in eps_values:
        base = gnn.GnnProblem(features=x, labels=y, weight=w, mask=mask, ridge=1.0)
        xp = x.copy()
        xp[i] += eps * w
        pert = gnn.GnnProblem(features=xp, labels=y, weight=w, mask=mask, ridge=1.0)
        pa = gnn.fit_projected_closed_form(base) @ vt
        pb = gnn.fit_projected_closed_form(pert) @ vt
        gap = np.abs(pa - pb) * (np.abs(pa + pb) + 2.0)
        beta2_vals.append(gap.max())
        beta1_vals.append(gap[outside].max())
    s2 = np.polyfit(np.log(eps_values), np.log(beta2_vals), 1)[0]
    s1 = np.polyfit(np.log(eps_values), np.log(beta1_vals), 1)[0]
    assert 0.8 <= s2 <= 1.2
    assert 1.8 <= s1 <= 2.2


def test_experiment_rejects_large_feature_bump():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(5))
    with pytest.raises(ValueError):
        gnn.gnn_stability_experiment(rf, "feature-first-order", trials=1,
                                     eps_feature=0.5, seed=0)


def test_label_mode_beta1_exactly_zero():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(8))
    res = gnn.gnn_stability_experiment(rf, "label", trials=2, eps_feature=0.0,
                                       seed=13)
    assert res.beta1 == 0.0
    assert res.beta2 > 0.0
    assert res.discrepancy == res.beta2


def test_feature_mode_positive_discrepancy():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(8))
    res = gnn.gnn_stability_experiment(rf, "feature-first-order", trials=2,
                                       eps_feature=0.05, seed=14)
    assert res.beta2 > res.beta1 >= 0.0


def test_scaling_sweep_slope_near_linear():
    results = [gnn.sweep_point(p, di, rep, n=32, trials=2, seed=15)
               for di, p in enumerate([0.08, 0.2, 0.5]) for rep in range(3)]
    slope = np.polyfit(np.log([r.sup_d for r in results]),
                       np.log([r.beta2 for r in results]), 1)[0]
    assert 0.5 <= slope <= 1.5


def test_experiment_deterministic():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    r1 = gnn.gnn_stability_experiment(rf, "label", trials=2, eps_feature=0.0,
                                      seed=16)
    r2 = gnn.gnn_stability_experiment(rf, "label", trials=2, eps_feature=0.0,
                                      seed=16)
    assert np.array_equal(r1.beta2_i, r2.beta2_i)
