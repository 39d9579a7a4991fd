import numpy as np
import pytest

from grlstab import gnn, graphs
from grlstab.seeding import child_rng

from gnn_oracles import SupportError, full_objective_gradient, gnn_objective


def use_fit(monkeypatch, solver):
    """Make gnn_stability_experiment and its reference loop fit with the
    rowwise oracle when solver is "rowwise"; both look up
    gnn.fit_projected_closed_form at call time."""
    if solver == "rowwise":
        monkeypatch.setattr(gnn, "fit_projected_closed_form", gnn.fit_exact_rowwise)


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
                          mask=graphs.mask_from_fields(rf), ridge=ridge)


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
    for fit in (gnn.fit_projected_closed_form, gnn.fit_exact_rowwise):
        a = fit(p)
        assert np.all(a[~p.mask] == 0.0)


def test_full_mask_solvers_coincide():
    rng = child_rng(1, "full")
    n = 5
    rf = graphs.one_hop_receptive_fields(graphs.complete_graph(n))
    p = random_problem(rng, rf)
    a1 = gnn.fit_projected_closed_form(p)
    a2 = gnn.fit_exact_rowwise(p)
    assert np.allclose(a1, a2, atol=1e-12)


def test_singleton_row_mask_scalar_ridge():
    # row's field = {i} only: A~_ii = y_i v_i / (ridge + v_i^2)
    rf = graphs.one_hop_receptive_fields(graphs.empty_graph(3))
    rng = child_rng(2, "singleton")
    p = random_problem(rng, rf, ridge=0.5)
    a = gnn.fit_exact_rowwise(p)
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
    a = gnn.fit_exact_rowwise(p)
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
        obj_row = gnn_objective(p, gnn.fit_exact_rowwise(p))
        obj_proj = gnn_objective(p, gnn.fit_projected_closed_form(p))
        assert obj_row <= obj_proj + 1e-12


def test_homogeneity_in_labels():
    rng = child_rng(8, "homog")
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    p = random_problem(rng, rf)
    c = 0.37
    scaled = gnn.GnnProblem(features=p.features, labels=c * p.labels, weight=p.weight,
                            mask=p.mask, ridge=p.ridge)
    for fit in (gnn.fit_projected_closed_form, gnn.fit_exact_rowwise):
        assert np.allclose(fit(scaled), c * fit(p))


def test_mask_projection_idempotent():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    mask = graphs.mask_from_fields(rf)
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
    row_fit = gnn.fit_exact_rowwise(p)
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
    """The candidate list the batched experiment must reproduce, one set at a time."""
    cands = [gnn._rows_in_ball(rng, n, dim, b_x) for _ in range(n_draws)]
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
    """Per-candidate loop kept as the bit pin of gnn_stability_experiment.

    Returns (beta1_i, beta2_i).
    """
    fit = gnn.fit_projected_closed_form
    mask = graphs.mask_from_fields(rf)
    n = rf.n
    beta1_i = np.zeros(n)
    beta2_i = np.zeros(n)
    outside = [rf.outside(i) for i in range(n)]

    for trial in range(trials):
        rng = child_rng(seed, "gnn-trial", trial)
        base_radius = b_x - eps_feature if kind == gnn.FEATURE_MODE else b_x
        x = gnn._rows_in_ball(rng, n, dim, base_radius)
        y = rng.uniform(-b_y, b_y, size=n)
        w = gnn._rows_in_ball(rng, 1, dim, b_w)[0]
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


def assert_matches_reference(rf, kind, seed, trials=1, **kwargs):
    eps = 0.05 if kind == gnn.FEATURE_MODE else 0.0
    res = gnn.gnn_stability_experiment(rf, kind, trials, eps, seed, **kwargs)
    beta1_i, beta2_i = reference_gnn_stability_experiment(rf, kind, trials, eps, seed,
                                                          **kwargs)
    assert np.array_equal(res.beta1_i, beta1_i)
    assert np.array_equal(res.beta2_i, beta2_i)
    return res


@pytest.mark.parametrize("n_draws", [0, 1, 7])
@pytest.mark.parametrize("weight_scale", [0.0, 0.9])
def test_candidate_batch_bit_equal_reference_list(n_draws, weight_scale):
    # the corners usually attain the experiment's max, so the Monte Carlo
    # sets and the stream they leave behind are pinned here directly
    rf = gnn.density_mask_fields(24, 0.3, seed=8)
    p = random_problem(child_rng(18, "cands"), rf)
    w = p.weight / np.linalg.norm(p.weight) * weight_scale
    a = gnn.fit_projected_closed_form(p)
    y2 = p.labels.copy()
    y2[3] = 1.0
    a2 = gnn.fit_projected_closed_form(gnn.GnnProblem(
        features=p.features, labels=y2, weight=p.weight, mask=p.mask, ridge=p.ridge))
    pairs = [(a2 - a, a2 + a), (np.zeros_like(a), a)]
    rng, ref_rng = child_rng(19, "cands"), child_rng(19, "cands")
    cands = gnn._test_feature_candidates(rng, 24, 3, 0.7, w, pairs, n_draws)
    expected = reference_test_feature_candidates(ref_rng, 24, 3, 0.7, w, pairs, n_draws)
    assert cands.shape == (len(expected), 24, 3)
    assert len(expected) > n_draws or weight_scale == 0.0
    assert all(np.array_equal(c, e) for c, e in zip(cands, expected))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", [gnn.LABEL_MODE, gnn.FEATURE_MODE])
@pytest.mark.parametrize("solver", ["projected", "rowwise"])
@pytest.mark.parametrize("n, density", [(32, 0.05), (48, 0.2), (64, 0.5), (40, 0.8)])
def test_batched_candidates_bit_equal_reference_loop(kind, solver, n, density, monkeypatch):
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
    # b_w = 0: the weight is zero and no corners are made; with no draws
    # either, the candidate batch is empty and the betas stay untouched
    rf = gnn.density_mask_fields(32, 0.2, seed=5)
    res = assert_matches_reference(rf, kind, seed=22, n_test_draws=n_test_draws, b_w=0.0)
    assert not res.beta2_i.any()
    cands = gnn._test_feature_candidates(child_rng(0, "c"), 32, 3, 1.0, np.zeros(3),
                                         [(np.ones((32, 32)), np.ones((32, 32)))],
                                         n_test_draws)
    assert cands.shape == (n_test_draws, 32, 3)


@pytest.mark.parametrize("kind", [gnn.LABEL_MODE, gnn.FEATURE_MODE])
def test_batched_candidates_corners_only_bit_equal(kind):
    # n_test_draws = 0 with a nonzero weight: the batch holds the corners only
    rf = gnn.density_mask_fields(32, 0.2, seed=6)
    res = assert_matches_reference(rf, kind, seed=23, n_test_draws=0)
    assert res.beta2 > 0.0



@pytest.mark.parametrize("solver", ["projected", "rowwise"])
def test_label_mode_draws_change_nothing(solver, monkeypatch):
    # label mode evaluates the sign corners only; the reference loop, which
    # still draws 32 Monte Carlo sets per vertex, reaches the same bits
    use_fit(monkeypatch, solver)
    rf = gnn.density_mask_fields(40, 0.3, seed=9)
    corners = gnn.gnn_stability_experiment(rf, gnn.LABEL_MODE, 2, 0.0, seed=24,
                                           n_test_draws=0)
    drawn = assert_matches_reference(rf, gnn.LABEL_MODE, seed=24, trials=2,
                                     n_test_draws=32)
    assert np.array_equal(corners.beta1_i, drawn.beta1_i)
    assert np.array_equal(corners.beta2_i, drawn.beta2_i)


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
    mask = graphs.mask_from_fields(rf)
    expected = np.zeros(n)
    for trial in range(trials):
        rng = child_rng(seed, "gnn-trial", trial)
        x = gnn._rows_in_ball(rng, n, dim, b_x)
        y = rng.uniform(-b_y, b_y, size=n)
        w = gnn._rows_in_ball(rng, 1, dim, b_w)[0]
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


def test_derived_problems_check_only_replaced_entries():
    rng = child_rng(25, "derived")
    rf = gnn.density_mask_fields(12, 0.4, seed=3)
    p = random_problem(rng, rf)
    labels = p.labels.copy()
    with pytest.raises(ValueError, match="b_y"):
        p.with_label(2, 1.5)
    with pytest.raises(ValueError, match="b_x"):
        p.with_feature_row(2, [1.2, 0.0, 0.0])
    with pytest.raises(ValueError, match="feature columns"):
        p.with_feature_row(2, [0.1, 0.1])

    q = p.with_label(2, -1.0)
    assert q.v is p.v and q.features is p.features and q.mask is p.mask
    assert np.array_equal(p.labels, labels) and q.labels[2] == -1.0
    row = p.features[5] + 0.05 * p.weight / np.linalg.norm(p.weight)
    r = p.with_feature_row(5, row)
    assert r.labels is p.labels and r.mask is p.mask and "v" not in vars(r)
    for derived in (q, r):
        fresh = gnn.GnnProblem(features=derived.features, labels=derived.labels,
                               weight=p.weight, mask=p.mask, ridge=p.ridge)
        assert np.array_equal(derived.v, fresh.v)
        for fit in (gnn.fit_projected_closed_form, gnn.fit_exact_rowwise):
            assert np.array_equal(fit(derived), fit(fresh))


@pytest.mark.parametrize("kind", [gnn.LABEL_MODE, gnn.FEATURE_MODE])
def test_experiment_rejects_negative_test_draws(kind):
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(5))
    with pytest.raises(ValueError, match="n_test_draws"):
        gnn.gnn_stability_experiment(rf, kind, trials=1, eps_feature=0.05, seed=0,
                                     n_test_draws=-3)


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
    mask = graphs.mask_from_fields(rf)
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
                                       seed=13, n_test_draws=8)
    assert res.beta1 == 0.0
    assert res.beta2 > 0.0
    assert res.discrepancy == res.beta2


def test_feature_mode_positive_discrepancy():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(8))
    res = gnn.gnn_stability_experiment(rf, "feature-first-order", trials=2,
                                       eps_feature=0.05, seed=14, n_test_draws=8)
    assert res.beta2 > res.beta1 >= 0.0


def test_scaling_sweep_slope_near_linear():
    results = [gnn.sweep_point(p, di, rep, n=32, trials=2, seed=15, n_test_draws=8)
               for di, p in enumerate([0.08, 0.2, 0.5]) for rep in range(3)]
    slope = np.polyfit(np.log([r.sup_d for r in results]),
                       np.log([r.beta2 for r in results]), 1)[0]
    assert 0.5 <= slope <= 1.5


def test_experiment_deterministic():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    r1 = gnn.gnn_stability_experiment(rf, "label", trials=2, eps_feature=0.0,
                                      seed=16, n_test_draws=8)
    r2 = gnn.gnn_stability_experiment(rf, "label", trials=2, eps_feature=0.0,
                                      seed=16, n_test_draws=8)
    assert np.array_equal(r1.beta2_i, r2.beta2_i)
