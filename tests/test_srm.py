import numpy as np
import pytest

from grlstab import graphs, sampling, srm
from grlstab.bounds import srm_confidence
from grlstab.harness import estimate_stability
from grlstab.seeding import child_rng


def make_family(n=8, d_max=3, dim=3, radius=1.0):
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    return srm.DegreeClassFamily(rf=rf, d_max=d_max, dim=dim,
                                 weight_radius=radius, b_x=1.0, b_y=1.0)


def make_instance(family, seed=0):
    sampler = sampling.IidSampler(rf=family.rf, dim=family.dim)
    return sampler, sampler.sample(seed)


def test_truncated_fields_nested_and_symmetric():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(9))
    prev = None
    for d in (1, 2, 3):
        fields = srm.truncated_fields(rf, d)
        for i, members in enumerate(fields):
            assert i in members
            for j in members:
                assert i in fields[j]
        if prev is not None:
            for small, big in zip(prev, fields):
                assert set(small) <= set(big)
        prev = fields
    assert srm.truncated_fields(rf, 1) == tuple((i,) for i in range(9))


def test_design_matrix_zero_padding_nests_predictions():
    family = make_family()
    _, z = make_instance(family)
    phi2 = family.design_matrix(z, 2)
    phi3 = family.design_matrix(z, 3)
    rng = child_rng(1, "pad")
    w2 = rng.normal(size=phi2.shape[1])
    w3 = np.concatenate([w2, np.zeros(phi3.shape[1] - phi2.shape[1])])
    assert np.allclose(phi2 @ w2, phi3 @ w3)


def reference_design_matrix(family, z, degree):
    """The per-vertex slot loop that `design_matrix` must match byte for byte."""
    n, dim = family.rf.n, family.dim
    k = family.n_slots(degree)
    phi = np.zeros((n, k * dim))
    fields = srm.truncated_fields(family.rf, degree)
    for i in range(n):
        slots = [None] * k
        slots[0] = i
        for j in fields[i]:
            if j == i:
                continue
            dist = min(abs(i - j), n - abs(i - j))
            slot = 2 * dist - 1 if (i + dist) % n == j else 2 * dist
            if slot < k:
                slots[slot] = j
        for slot, j in enumerate(slots):
            if j is not None:
                phi[i, slot * dim:(slot + 1) * dim] = z.features[j]
    return phi


@pytest.mark.parametrize("fields", ["one-hop", "all"])
def test_design_matrix_equals_reference_slot_loop(fields):
    # "all": every vertex is in every field, so the top degree reaches the
    # n-even antipode, whose forward and backward slots coincide
    for n in range(3, 17):
        graph = graphs.cycle_graph(n) if fields == "one-hop" else graphs.complete_graph(n)
        rf = graphs.one_hop_receptive_fields(graph)
        d_max = n // 2 + 1
        family = srm.DegreeClassFamily(rf=rf, d_max=d_max, dim=2, weight_radius=1.0,
                                       b_x=1.0, b_y=1.0)
        z = sampling.IidSampler(rf=rf, dim=2).sample(n)
        for d in range(1, d_max + 1):
            phi = family.design_matrix(z, d)
            ref = reference_design_matrix(family, z, d)
            assert phi.dtype == ref.dtype and phi.shape == ref.shape
            assert phi.tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="degree"):
        family.design_matrix(z, d_max + 1)


def test_ball_constrained_least_squares_exact_inside():
    rng = child_rng(2, "ls")
    phi = rng.normal(size=(20, 4))
    y = rng.normal(size=20)
    w = srm.ball_constrained_least_squares(phi, y, radius=1e6)
    w_ref, *_ = np.linalg.lstsq(phi, y, rcond=None)
    assert np.allclose(w, w_ref)


def test_ball_constrained_least_squares_boundary_case():
    rng = child_rng(3, "ls2")
    phi = rng.normal(size=(30, 4))
    y = 10.0 * rng.normal(size=30)
    radius = 0.3
    w = srm.ball_constrained_least_squares(phi, y, radius)
    assert np.linalg.norm(w) <= radius + 1e-9
    # optimal on the boundary: no feasible direction improves the residual
    resid = phi @ w - y
    grad = phi.T @ resid
    # KKT: gradient anti-parallel to w (grad = -nu w, nu >= 0)
    cos = float(grad @ w / (np.linalg.norm(grad) * np.linalg.norm(w)))
    assert cos == pytest.approx(-1.0, abs=1e-6)


def reference_ball_constrained_least_squares(phi, y, radius, tol=1e-12):
    """The bisection the solver used to run: LAPACK solves along the ridge
    path, stopped by hi - lo < tol max(1, hi), which is absolute below a
    multiplier of 1. Its result is feasible, so the shipped solver's
    objective must not exceed its own."""
    gram = phi.T @ phi
    rhs = phi.T @ y
    w0, *_ = np.linalg.lstsq(phi, y, rcond=None)
    if np.linalg.norm(w0) <= radius:
        return w0
    eye = np.eye(gram.shape[0])

    def norm_at(nu):
        return float(np.linalg.norm(np.linalg.solve(gram + nu * eye, rhs)))

    lo, hi = 0.0, 1.0
    while norm_at(hi) > radius:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, hi):
            break
    return np.linalg.solve(gram + hi * eye, rhs)


def srm_problems(rng):
    """(kind, phi, y): uniform, rank-deficient and near-duplicate columns,
    each column scaled by 10^[-6, 3], and pooled pairs of the srm job's
    design matrices on cycle-16 (32 rows, classes 1..3)."""
    for columns in (3, 9, 15):
        for rows in (16, 32):
            for kind in ("uniform", "rank-deficient", "near-duplicate"):
                phi = rng.uniform(-1.0, 1.0, size=(rows, columns))
                if kind == "rank-deficient":
                    rank = int(rng.integers(1, columns))
                    phi = phi[:, :rank] @ rng.uniform(-1.0, 1.0, size=(rank, columns))
                elif kind == "near-duplicate":
                    phi[:, -1] = phi[:, 0] * (1.0 + 10.0 ** rng.uniform(-15, -6))
                phi *= 10.0 ** rng.uniform(-6.0, 3.0, size=columns)
                yield kind, phi, rng.uniform(-1.0, 1.0, size=rows)
    family = make_family(n=16, d_max=3)
    sampler = sampling.IidSampler(rf=family.rf, dim=family.dim)
    for seed in range(4):
        sets = [sampler.sample(2 * seed), sampler.sample(2 * seed + 1)]
        for d in (1, 2, 3):
            phi, y = srm.SrmClassAlgorithm(family, d).prepare(sets[0])
            phi2, y2 = srm.SrmClassAlgorithm(family, d).prepare(sets[1])
            yield "pooled", np.vstack([phi, phi2]), np.concatenate([y, y2])


def objective(phi, y, w):
    return 0.5 * float(np.sum((phi @ w - y) ** 2))


def cosine_to_gradient(phi, y, w, radius):
    # taken on w / radius, whose squares stay in the normal range at tiny radii
    grad = phi.T @ (phi @ w - y)
    v = w / radius
    return float(grad @ v / (np.linalg.norm(grad) * np.linalg.norm(v)))


def test_ball_constrained_least_squares_is_optimal_from_one_svd(monkeypatch):
    # every srm_problems case, an all-zero design and one with no columns,
    # inside the ball and on its boundary; each fit makes one SVD and no
    # lstsq, eigh or solve call
    lstsq, svd = np.linalg.lstsq, np.linalg.svd
    calls = []
    for name in ("lstsq", "eigh", "solve"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _f=original, **k:
                            calls.append(_name) or _f(*a, **k))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd") or svd(*a, **k))
    eps = np.finfo(float).eps
    rng = child_rng(6, "ls-optimal")
    problems = [*srm_problems(rng), ("zero", np.zeros((16, 9)), rng.uniform(-1.0, 1.0, 16)),
                ("no columns", np.zeros((16, 0)), rng.uniform(-1.0, 1.0, 16))]
    boundary = 0
    for kind, phi, y in problems:
        w_ls = lstsq(phi, y, rcond=None)[0]
        w_norm = float(np.linalg.norm(w_ls)) or 1.0
        y_scale = float(y @ y)
        for factor in (2.0, 0.999, 0.5, 1e-3):
            radius = factor * w_norm
            calls.clear()
            w = srm.ball_constrained_least_squares(phi, y, radius)
            assert calls == ["svd"], (kind, calls)
            if np.linalg.norm(w_ls) <= radius:
                assert abs(objective(phi, y, w) - objective(phi, y, w_ls)) <= 1e-12 * y_scale
                assert np.linalg.norm(w) <= np.linalg.norm(w_ls) * (1.0 + 1e-12)
                continue
            boundary += 1
            assert abs(np.linalg.norm(w) / radius - 1.0) <= 1e-13, (kind, factor)
            # KKT to rounding: the gradient g is -nu w with nu >= 0, up to the
            # rounding that forming w from the SVD leaves in g, about
            # eps ||phi|| (||phi|| ||w|| + ||y||). Where nu ||w|| is far below
            # that (scaled columns at 0.999 ||w_ls||), the rounding decides
            # the cosine of g and w, so it is checked only in the tests below
            grad = phi.T @ (phi @ w - y)
            slack = 16.0 * eps * np.linalg.norm(phi) * (
                np.linalg.norm(phi) * np.linalg.norm(w) + np.linalg.norm(y))
            along = float(grad @ w) / float(w @ w)
            assert along <= slack / np.linalg.norm(w)
            assert np.linalg.norm(grad - along * w) <= slack, (kind, factor)
            reference = reference_ball_constrained_least_squares(phi, y, radius)
            assert objective(phi, y, w) <= objective(phi, y, reference) + 1e-12 * y_scale
    assert boundary == 3 * (len(problems) - 2)


def test_ball_constrained_least_squares_reaches_the_sphere_at_small_multipliers():
    # b_x = 1e-6 puts the multiplier near 1e-12, where the old bisection's
    # stop rule hi - lo < 1e-12 max(1, hi) was absolute and stopped inside
    # the ball (||W|| = 0.69 to 0.95 R on these designs)
    family = srm.DegreeClassFamily(rf=graphs.one_hop_receptive_fields(graphs.cycle_graph(16)),
                                   d_max=3, dim=3, weight_radius=1.0, b_x=1e-6, b_y=1.0)
    sampler = sampling.IidSampler(rf=family.rf, dim=family.dim, b_x=1e-6)
    for seed in range(4):
        z = sampler.sample(seed)
        for d in (1, 2, 3):
            phi, y = srm.SrmClassAlgorithm(family, d).prepare(z)
            radius = 0.5 * float(np.linalg.norm(np.linalg.lstsq(phi, y, rcond=None)[0]))
            w = srm.ball_constrained_least_squares(phi, y, radius)
            assert abs(np.linalg.norm(w) / radius - 1.0) <= 1e-13
            assert cosine_to_gradient(phi, y, w, radius) == pytest.approx(-1.0, abs=1e-9)
            reference = reference_ball_constrained_least_squares(phi, y, radius)
            assert objective(phi, y, w) <= objective(phi, y, reference) * (1.0 + 1e-12)


@pytest.mark.parametrize("radius", [1e-17, 1e-30, 1e-160, 1e-200, 1e-300])
def test_ball_constrained_least_squares_solves_tiny_radii(radius):
    # the multiplier is about ||phi'y|| / radius, near 1e300 at the smallest
    # radius, and below 1e-154 a norm taken on w itself squares into the
    # subnormal range
    family = make_family(n=8, d_max=2)
    phi, y = srm.SrmClassAlgorithm(family, 2).prepare(make_instance(family, seed=3)[1])
    w = srm.ball_constrained_least_squares(phi, y, radius)
    eps = np.finfo(float).eps
    assert 1.0 - 1e-12 <= np.linalg.norm(w / radius) <= 1.0 + 4.0 * eps
    assert cosine_to_gradient(phi, y, w, radius) == pytest.approx(-1.0, abs=1e-9)


def test_ball_constrained_least_squares_rejects_a_radius_whose_bound_overflows():
    family = make_family(n=8, d_max=2)
    phi, y = srm.SrmClassAlgorithm(family, 2).prepare(make_instance(family, seed=3)[1])
    with pytest.raises(ValueError, match="weight_radius 1e-310 is too small"):
        srm.ball_constrained_least_squares(phi, y, 1e-310)


@pytest.mark.filterwarnings("error")
def test_ball_constrained_least_squares_rejects_a_design_whose_squares_overflow():
    # s * s used to overflow to inf, so every w_k read 0 and W = 0 came back
    family = make_family(n=8, d_max=2)
    phi, y = srm.SrmClassAlgorithm(family, 2).prepare(make_instance(family, seed=3)[1])
    srm.ball_constrained_least_squares(phi * 1e150, y, 1.0)
    with pytest.raises(ValueError, match="design singular value .* squares past float range"):
        srm.ball_constrained_least_squares(phi * 1e160, y, 1.0)


def test_class_ris0_non_increasing_in_degree():
    family = make_family(d_max=4)
    for seed in range(5):
        _, z = make_instance(family, seed)
        zero_beta = dict.fromkeys(range(1, family.d_max + 1), 0.0)
        risks = [f.empirical_risk for f in srm.select_sparse(family, z, 0.0, zero_beta).fits]
        assert all(b <= a + 1e-10 for a, b in zip(risks, risks[1:]))


def test_select_sparse_fits_are_class_erms_bit_for_bit():
    # each fit is the ball-constrained least squares of its class and its
    # risk the mean half squared residual, as the harness learner computes them
    family = make_family()
    _, z = make_instance(family, seed=2)
    beta2 = {1: 0.01, 2: 0.02, 3: 0.03}
    sel = srm.select_sparse(family, z, 0.4, beta2)
    for fit in sel.fits:
        phi = family.design_matrix(z, fit.degree)
        w = srm.ball_constrained_least_squares(phi, z.labels, family.weight_radius)
        risk = float(np.mean(0.5 * (phi @ w - z.labels) ** 2))
        assert np.array_equal(fit.weights, w)
        assert fit.empirical_risk == risk
        assert fit.penalized_risk == risk + 2.0 * 0.4 * fit.degree * beta2[fit.degree]


def test_select_sparse_lambda_zero_is_plain_erm_largest_class():
    family = make_family()
    _, z = make_instance(family, seed=1)
    beta2 = {1: 0.01, 2: 0.02, 3: 0.03}
    sel = srm.select_sparse(family, z, 0.0, beta2)
    # zero penalty: minimizer of the empirical risk; ties toward smaller d
    risks = [f.empirical_risk for f in sel.fits]
    assert sel.selected.empirical_risk == pytest.approx(min(risks))


def test_select_sparse_zero_beta_equals_lambda_zero():
    family = make_family()
    _, z = make_instance(family, seed=2)
    zero_beta = {d: 0.0 for d in (1, 2, 3)}
    s_a = srm.select_sparse(family, z, 10.0, zero_beta)
    s_b = srm.select_sparse(family, z, 0.0, zero_beta)
    assert s_a.selected.degree == s_b.selected.degree


def test_selected_degree_non_increasing_in_lambda():
    family = make_family()
    _, z = make_instance(family, seed=3)
    beta2 = {1: 0.005, 2: 0.02, 3: 0.05}  # increasing d * beta2(d)
    degrees = [
        srm.select_sparse(family, z, lam, beta2).selected.degree
        for lam in (0.0, 0.1, 1.0, 10.0)
    ]
    assert all(b <= a for a, b in zip(degrees, degrees[1:]))


def test_no_dominated_degree_selected():
    family = make_family()
    _, z = make_instance(family, seed=4)
    beta2 = {1: 0.01, 2: 0.015, 3: 0.04}
    sel = srm.select_sparse(family, z, 0.7, beta2)
    assert all(sel.selected.penalized_risk <= f.penalized_risk + 1e-15 for f in sel.fits)


def test_tie_break_toward_smaller_degree():
    family = make_family()
    _, z = make_instance(family, seed=5)
    # degenerate beta2 making all penalized risks equal is contrived; instead
    # verify the comparator directly on equal keys
    fits = [srm.ClassFit(degree=d, weights=np.zeros(1), empirical_risk=1.0,
                         penalty=0.0, penalized_risk=1.0) for d in (1, 2, 3)]
    chosen = min(fits, key=lambda f: (f.penalized_risk, f.degree))
    assert chosen.degree == 1


def test_missing_beta_rejected():
    family = make_family()
    _, z = make_instance(family, seed=7)
    with pytest.raises(ValueError):
        srm.select_sparse(family, z, 1.0, {1: 0.0})


@pytest.mark.parametrize("slack", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_slack_rejected(slack):
    family = make_family()
    _, z = make_instance(family, seed=7)
    with pytest.raises(ValueError, match="lambda_slack must be finite"):
        srm.select_sparse(family, z, slack, {1: 0.0, 2: 0.0, 3: 0.0})


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_weight_radius_rejected(radius):
    with pytest.raises(ValueError, match="weight_radius must be finite"):
        make_family(radius=radius)


def test_srm_class_algorithm_stability_in_harness():
    family = make_family(n=6, d_max=2)
    sampler = sampling.IidSampler(rf=family.rf, dim=3)
    alg = srm.SrmClassAlgorithm(family, degree=2)
    est = estimate_stability(alg, sampler, 2, 2, seed=8)
    assert est.beta2 > 0.0
    assert est.beta2 <= family.loss_bound()


def test_srm_report_fields_and_confidence():
    family = make_family(n=8, d_max=3)
    sampler, z = make_instance(family, seed=9)
    beta2 = {1: 0.01, 2: 0.02, 3: 0.03}
    sel = srm.select_sparse(family, z, 1.0, beta2)
    holdout = [sampler.sample(100 + k) for k in range(4)]
    record = srm.srm_report(sel, family, holdout, epsilon=1.0, beta1=0.005,
                            n_vertices=8)
    assert 0.0 <= record.failure_probability <= 1.0
    assert record.oracle_rhs >= record.epsilon
    # the guarantee itself should comfortably hold on benign instances
    assert record.satisfied


def test_srm_report_single_class_confidence_matches_hand_value():
    family = make_family(n=8, d_max=1)
    sampler, z = make_instance(family, seed=10)
    sel = srm.select_sparse(family, z, 1.0, {1: 0.0})
    holdout = [sampler.sample(200)]
    record = srm.srm_report(sel, family, holdout, epsilon=2.0, beta1=0.0, n_vertices=8)
    b_l = family.loss_bound()
    expect = min(1.0, 2 * np.exp(-((2.0 / 2 + (1.0 - 2.0) * 1 * 0.0) ** 2)
                                 / (2 * 8 * ((2 - 2) * 0.0 + 1 * (0.0 + b_l)) ** 2)))
    assert record.failure_probability == pytest.approx(expect, rel=1e-12)
    assert record.failure_probability == pytest.approx(
        srm_confidence(0.0, 0.0, b_l, 1.0, 1, 8, 2.0), rel=1e-12
    )
