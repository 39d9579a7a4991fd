import math

import numpy as np
import pytest

from grlstab import bounds
from grlstab.objectives import ConstantsCertificate


def unit_cert(lam=1.0, gamma=1.0, lip=1.0, zeta=1.0, b_l=1.0, b_z=1.0):
    return ConstantsCertificate(
        smoothness=lam, strong_convexity=gamma, lipschitz=lip,
        gradient_data_lipschitz=zeta, loss_bound=b_l, sample_diameter=b_z,
        weight_radius=1.0,
    )


def hand_params(steps=10):
    # lam = gamma = 1, alpha = 0.1, N = 10, NN_i = 2, B_Z = zeta = L = 1
    return bounds.SgdBoundParams(
        certificate=unit_cert(), step_size=0.1, steps=steps, n_vertices=10,
        field_sizes=np.full(10, 2), regime=bounds.STRONGLY_CONVEX,
    )


# ---------------------------------------------------------------------------
# Kernels


def geom_loop(x, steps):
    return sum(x**t for t in range(steps))


def test_geometric_series_limits_and_values():
    assert bounds.geometric_series(1.0, 7) == 7
    assert bounds.geometric_series(2.0, 3) == 7
    assert bounds.geometric_series(0.959, 10) == pytest.approx(geom_loop(0.959, 10), rel=1e-12)
    assert bounds.geometric_series(0.5, 0) == 0.0


def test_geometric_series_loop_equivalence_near_singular():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        steps = int(rng.integers(1, 300))
        mode = rng.integers(0, 3)
        if mode == 0:
            x = float(rng.uniform(0.2, 1.8))
        elif mode == 1:
            x = 1.0 + float(rng.uniform(-1e-6, 1e-6))
        else:
            x = 1.0 + float(rng.choice([-1, 1])) * 10.0 ** float(rng.uniform(-12, -7))
        got = bounds.geometric_series(x, steps)
        expect = geom_loop(x, steps)
        assert got == pytest.approx(expect, rel=1e-9)


def test_double_geometric_loop_equivalence():
    rng = np.random.default_rng(1)
    for _ in range(500):
        steps = int(rng.integers(1, 200))
        x = float(rng.uniform(0.2, 1.8)) if rng.random() < 0.8 else 1.0 + float(rng.uniform(-1e-8, 1e-8))
        got = bounds.double_geometric(x, steps)
        expect = sum(x ** (steps - 1 - s) * (x**2) ** s for s in range(steps))
        assert got == pytest.approx(expect, rel=1e-9)
    assert bounds.double_geometric(1.0, 9) == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# Difference-equation oracle: the A/B/C/D solution of the second-moment
# recursion, which bounds.variance_bound's exact form must equal


def power_ratio(a, b, steps):
    """(a^T - b^T)/(a - b) = sum_{s<T} a^{T-1-s} b^s, continuous at a = b."""
    if steps == 0:
        return 0.0
    scale = max(1.0, abs(a), abs(b))
    if abs(a - b) < bounds.BRANCH_WIDTH * scale:
        mid = 0.5 * (a + b)
        return steps * mid ** (steps - 1)
    return (a**steps - b**steps) / (a - b)


def difference_equation_solution(a, b, c, d, steps):
    """Solution at T of v_t = a v_{t-1} + c b^{t-1} + d with v_0 = 0."""
    return c * power_ratio(b, a, steps) + d * bounds.geometric_series(a, steps)


def variance_abcd_coefficients(growth, kick):
    """A/B/C/D of the second-moment difference equation (growth != 1):
    A = PZ^2, B = PZ, C = 2 PZ PY^2/(PZ-1), D = PY^2(PZ+1)/(1-PZ)."""
    a = growth**2
    b = growth
    c = 2.0 * growth * kick**2 / (growth - 1.0)
    d = kick**2 * (growth + 1.0) / (1.0 - growth)
    return a, b, c, d


def test_power_ratio_equal_arguments_limit():
    assert power_ratio(0.7, 0.7, 5) == pytest.approx(5 * 0.7**4)
    assert power_ratio(2.0, 1.0, 3) == pytest.approx((8 - 1) / (2 - 1))


def test_difference_equation_solution_matches_iteration():
    # generic coefficients, including forced a ~ b near-singular pairs
    rng = np.random.default_rng(2)
    for trial in range(500):
        steps = int(rng.integers(1, 150))
        a = float(rng.uniform(0.2, 1.3))
        b = a + float(rng.uniform(-1e-8, 1e-8)) if trial % 4 == 0 else float(rng.uniform(0.2, 1.3))
        c = float(rng.uniform(-2.0, 2.0))
        d = float(rng.uniform(-2.0, 2.0))
        got = difference_equation_solution(a, b, c, d, steps)
        v = 0.0
        for t in range(1, steps + 1):
            v = a * v + c * b ** (t - 1) + d
        assert got == pytest.approx(v, rel=1e-9, abs=1e-12)


def test_variance_abcd_substitution_matches_iteration():
    # the A/B/C/D substitution solves v_t = A v + C B^{t-1} + D exactly;
    # coefficients blow up like 1/(z - 1), so stay away from the z = 1 pole
    # (the near-singular regime is covered by the exact-kernel test below)
    rng = np.random.default_rng(12)
    for _ in range(300):
        steps = int(rng.integers(1, 150))
        z = float(rng.uniform(0.3, 1.7))
        if abs(z - 1.0) < 1e-3:
            z += 2e-3 if z >= 1.0 else -2e-3
        kick = float(rng.uniform(0.01, 1.0))
        a, b, c, d = variance_abcd_coefficients(z, kick)
        got = difference_equation_solution(a, b, c, d, steps)
        v = 0.0
        for t in range(1, steps + 1):
            v = a * v + c * b ** (t - 1) + d
        assert got == pytest.approx(v, rel=1e-9)


# ---------------------------------------------------------------------------
# Recursion constants


def convex_recursion_constants(p, i):
    """Scalar (PZ_i, PY_i) at vertex i, written out as the theorem states them."""
    cert = p.certificate
    lam, gamma = cert.smoothness, cert.strong_convexity
    a = p.step_size
    n = p.n_vertices
    d_i = p.field_sizes[i] / n
    pz = d_i * a * lam * (gamma / (lam + gamma) - a) + a**2 * lam / n + (
        1.0 - a * lam * gamma / (lam + gamma)
    )
    py = a * cert.sample_diameter * cert.gradient_data_lipschitz * (p.field_sizes[i] - 1) / n \
        + 2.0 * a * cert.lipschitz / n
    return float(pz), float(py)


def nonconvex_growth_constant(p):
    """PM = (N - 1)/N * a * lam."""
    return (p.n_vertices - 1) / p.n_vertices * p.step_size * p.certificate.smoothness


def nonconvex_kick_constant(p, i):
    cert = p.certificate
    n = p.n_vertices
    return float(
        p.step_size * cert.sample_diameter * cert.gradient_data_lipschitz
        * (p.field_sizes[i] - 1) / n
        + 2.0 * p.step_size * cert.lipschitz / n
    )


def reference_constants(p, i):
    if p.regime == bounds.STRONGLY_CONVEX:
        return convex_recursion_constants(p, i)
    return nonconvex_growth_constant(p), nonconvex_kick_constant(p, i)


def test_hand_substitution_constants():
    p = hand_params()
    pz, py = convex_recursion_constants(p, 0)
    assert pz == pytest.approx(0.959)
    assert py == pytest.approx(0.03)
    cert = p.certificate
    assert bounds.step_condition(p.step_size, cert.smoothness,
                                 cert.strong_convexity) == pytest.approx(0.1001)
    assert bounds.step_condition_ok(p)


def test_zero_step_limits():
    cert = unit_cert()
    for alpha in (1e-9, 1e-6):
        p = bounds.SgdBoundParams(certificate=cert, step_size=alpha, steps=5,
                                  n_vertices=10, field_sizes=np.full(10, 2),
                                  regime=bounds.STRONGLY_CONVEX)
        pz, py = convex_recursion_constants(p, 0)
        assert pz == pytest.approx(1.0, abs=1e-5)
        assert py == pytest.approx(0.0, abs=1e-5)


def test_isolated_vertex_kick_only_self_term():
    cert = unit_cert()
    p = bounds.SgdBoundParams(certificate=cert, step_size=0.1, steps=5,
                              n_vertices=10, field_sizes=np.full(10, 1),
                              regime=bounds.STRONGLY_CONVEX)
    _, py = convex_recursion_constants(p, 0)
    assert py == pytest.approx(2 * 0.1 * 1.0 / 10)


def test_nonconvex_growth_constant():
    cert = unit_cert(gamma=0.0)
    p = bounds.SgdBoundParams(certificate=cert, step_size=0.1, steps=5,
                              n_vertices=10, field_sizes=np.full(10, 2),
                              regime=bounds.NON_CONVEX)
    assert nonconvex_growth_constant(p) == pytest.approx(0.9 * 0.1)


# ---------------------------------------------------------------------------
# Expected stability


def test_expected_bound_zero_steps():
    assert bounds.expected_stability_bound(hand_params(steps=0), 0) == 0.0


def test_expected_bound_hand_value():
    # L * geom(0.959, 10) * 0.03, with the geometric sum from a loop oracle
    expect = 1.0 * geom_loop(0.959, 10) * 0.03
    assert bounds.expected_stability_bound(hand_params(), 0) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.2502, abs=2e-4)


def test_expected_bound_nonconvex_growth_limits():
    # growth constant at 1 collapses to the arithmetic sum L * T * PY_i
    # (the limit kernel); at 0 only the t = 0 term of the series survives
    cert = ConstantsCertificate(smoothness=1.0, strong_convexity=0.0, lipschitz=1.0,
                                gradient_data_lipschitz=1.0, loss_bound=1.0,
                                sample_diameter=1.0, weight_radius=1.0)
    n = 10
    alpha_unit = n / (n - 1)  # makes PM = (N-1)/N * alpha * lam = 1 exactly
    p = bounds.SgdBoundParams(certificate=cert, step_size=alpha_unit, steps=7,
                              n_vertices=n, field_sizes=np.full(n, 2),
                              regime=bounds.NON_CONVEX)
    assert nonconvex_growth_constant(p) == pytest.approx(1.0, abs=1e-12)
    kick = nonconvex_kick_constant(p, 0)
    assert bounds.expected_stability_bound(p, 0) == pytest.approx(7 * kick, rel=1e-9)

    cert0 = ConstantsCertificate(smoothness=1e-12, strong_convexity=0.0, lipschitz=1.0,
                                 gradient_data_lipschitz=1.0, loss_bound=1.0,
                                 sample_diameter=1.0, weight_radius=1.0)
    p0 = bounds.SgdBoundParams(certificate=cert0, step_size=0.1, steps=7,
                               n_vertices=n, field_sizes=np.full(n, 2),
                               regime=bounds.NON_CONVEX)
    kick0 = nonconvex_kick_constant(p0, 0)
    assert bounds.expected_stability_bound(p0, 0) == pytest.approx(kick0, rel=1e-6)


def test_expected_bound_not_applicable_when_condition_fails():
    cert = unit_cert()
    p = bounds.SgdBoundParams(certificate=cert, step_size=1.9, steps=5,
                              n_vertices=10, field_sizes=np.full(10, 2),
                              regime=bounds.STRONGLY_CONVEX)
    assert not bounds.step_condition_ok(p)
    assert bounds.expected_stability_bound(p) is None
    assert bounds.highprob_stability_bound(p, 0.1) is None


# ---------------------------------------------------------------------------
# Variance


def test_variance_zero_cases():
    p = hand_params(steps=0)
    vb = bounds.variance_bound(p)
    assert vb.total_loose == 0.0 and vb.total_exact == 0.0
    # zero kick
    cert = unit_cert(zeta=0.0, lip=0.0)
    p2 = bounds.SgdBoundParams(certificate=cert, step_size=0.1, steps=10,
                               n_vertices=10, field_sizes=np.full(10, 2),
                               regime=bounds.STRONGLY_CONVEX)
    vb2 = bounds.variance_bound(p2)
    assert vb2.total_loose == 0.0 and vb2.total_exact == 0.0


def test_variance_exact_matches_recursion_loop():
    p = hand_params(steps=10)
    pz, py = convex_recursion_constants(p, 0)
    v = m = 0.0
    for _ in range(10):
        v = pz * pz * v + 2 * py * pz * m + py * py
        m = pz * m + py
    vb = bounds.variance_bound(p)
    assert vb.per_vertex_exact[0] == pytest.approx(v, rel=1e-9)
    # exact solution equals the A/B/C/D difference-equation solution
    a, b, c, d = variance_abcd_coefficients(pz, py)
    assert difference_equation_solution(a, b, c, d, 10) == pytest.approx(v, rel=1e-9)


def test_variance_loose_form_dominates_exact_below_one():
    # for growth in (0, 1] the loose sum form upper-bounds the exact solution
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = float(rng.uniform(0.05, 1.0))
        k = float(rng.uniform(0.01, 1.0))
        steps = int(rng.integers(1, 100))
        assert (bounds.variance_term_loose(z, k, steps)
                >= bounds.variance_term_exact(z, k, steps) - 1e-12)


# ---------------------------------------------------------------------------
# High-probability bounds


def test_highprob_monotone_in_delta():
    p = hand_params(steps=20)
    deltas = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5]
    values = [bounds.highprob_stability_bound(p, d) for d in deltas]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_highprob_delta_near_one_keeps_scaled_expected_term():
    p = hand_params(steps=20)
    val = bounds.highprob_stability_bound(p, 1 - 1e-9)
    # log(2/delta) -> log 2; bound stays finite and positive
    assert np.isfinite(val) and val > 0


def test_highprob_convex_dual_implementation():
    # independent re-implementation of the full expression
    p = hand_params(steps=10)
    delta = 0.1
    lam = gamma = 1.0
    lip = 1.0
    envs = []
    var_sum = 0.0
    for i in range(10):
        pz, py = convex_recursion_constants(p, i)
        envs.append((pz**10 - 1) / (pz - 1) * py)
        var_sum += (2 * py**2 * (pz**20 - pz**10) / (pz**2 - pz)
                    + py**2 * (1 - pz**10) / (1 - pz) ** 2)
    sup_env = max(envs)
    gap = (lam - gamma) * math.sqrt(math.log(2 / delta) / 8)
    expected = (lip + gap) * sup_env + gap * (sup_env + math.sqrt(var_sum / delta)) ** 2
    assert bounds.highprob_stability_bound(p, delta) == pytest.approx(expected, rel=1e-9)


def test_highprob_nonconvex_dual_implementation():
    cert = unit_cert(gamma=0.0)
    p = bounds.SgdBoundParams(certificate=cert, step_size=0.1, steps=10,
                              n_vertices=10, field_sizes=np.full(10, 2),
                              regime=bounds.NON_CONVEX)
    delta = 0.1
    pm = 0.9 * 0.1
    py = 0.03
    expected_term = 1.0 * (pm**10 - 1) / (pm - 1) * py
    var_sum = 10 * (2 * py**2 * (pm**20 - pm**10) / (pm**2 - pm)
                    + py**2 * (1 - pm**10) / (1 - pm) ** 2)
    expected = (expected_term * (1 + math.sqrt(math.log(2 / delta) / 2))
                + 1.0 * math.sqrt(math.log(2 / delta) / delta * var_sum))
    assert bounds.highprob_stability_bound(p, delta) == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# Generalization bounds


def test_single_graph_zero_stability_pure_tail():
    n, b_l, delta = 16, 2.0, 0.1
    got = bounds.generalization_bound_single(0.0, 0.0, b_l, np.full(n, 1 / n), 0.0, delta)
    expect = b_l * math.sqrt(2.0 / n) * math.sqrt(math.log(1 / delta))
    assert got == pytest.approx(expect, rel=1e-12)


def test_single_graph_classical_reduction_shape():
    # beta1 = beta2 = beta, d_i = 1/N, alpha = 0
    n, beta, b_l, delta = 10, 0.05, 1.0, 0.1
    got = bounds.generalization_bound_single(beta, beta, b_l, np.full(n, 1 / n), 0.0, delta)
    sens = (2 - 2 / n) * beta + (beta + b_l) / n
    expect = 2 * beta + math.sqrt(2 * n) * sens * math.sqrt(math.log(1 / delta))
    assert got == pytest.approx(expect, rel=1e-12)


def test_single_graph_monotone_and_divergent_in_alpha():
    args = (0.01, 0.02, 1.0, np.full(8, 0.25))
    vals = [bounds.generalization_bound_single(*args, a, 0.1) for a in (0.0, 0.5, 0.9, 0.999)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(bounds.BoundDomainError):
        bounds.generalization_bound_single(*args, 1.0, 0.1)


def test_mgraph_zero_stability_pure_tail():
    n, m, b_l, delta = 6, 3, 1.5, 0.2
    d = np.full(n, 2 / n)
    got = bounds.generalization_bound_mgraph(0.0, b_l, d, m, 0.0, delta)
    expect = math.sqrt(2 * m * np.sum((d * b_l / m) ** 2)) * math.sqrt(math.log(1 / delta))
    assert got == pytest.approx(expect, rel=1e-12)


def test_mgraph_hand_arithmetic_m1():
    n, mu, b_l, delta = 4, 0.1, 1.0, 0.1
    d = np.full(n, 1 / n)
    got = bounds.generalization_bound_mgraph(mu, b_l, d, 1, 0.0, delta)
    sens = (2 - 0.25) * mu + 0.25 * b_l
    expect = n * mu + math.sqrt(2 * 1 * n * sens**2) * math.sqrt(math.log(10))
    assert got == pytest.approx(expect, rel=1e-12)


def test_mgraph_monotone_in_mu_and_n():
    d8 = np.full(8, 0.25)
    v1 = bounds.generalization_bound_mgraph(0.01, 1.0, d8, 2, 0.1, 0.1)
    v2 = bounds.generalization_bound_mgraph(0.05, 1.0, d8, 2, 0.1, 0.1)
    assert v2 > v1
    d16 = np.full(16, 0.25)
    v3 = bounds.generalization_bound_mgraph(0.01, 1.0, d16, 2, 0.1, 0.1)
    assert v3 > v1


def test_concentration_tail_values():
    assert bounds.concentration_tail([1, 1], 0.0, 0.0) == 1.0
    got = bounds.concentration_tail(np.ones(4), 0.0, 2.0)
    assert got == pytest.approx(math.exp(-0.5), rel=1e-12)
    # degenerate sensitivities
    assert bounds.concentration_tail(np.zeros(3), 0.0, 1.0) == 0.0
    # degrades as alpha -> 1
    vals = [bounds.concentration_tail(np.ones(4), a, 2.0) for a in (0.0, 0.3, 0.6, 0.9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sgd_generalization_bound_pure_loss_term():
    # zero kicks: only the B_L tail term remains
    cert = unit_cert(zeta=0.0, lip=0.0, b_l=2.0)
    p = bounds.SgdBoundParams(certificate=cert, step_size=0.1, steps=10,
                              n_vertices=16, field_sizes=np.full(16, 2),
                              regime=bounds.STRONGLY_CONVEX)
    got = bounds.sgd_generalization_bound(p, 0.1)
    expect = 2.0 / 16 * math.sqrt(2 * 16 * math.log(20))
    assert got == pytest.approx(expect, rel=1e-12)


def test_sgd_generalization_bound_dual_implementation_convex():
    p = hand_params(steps=10)
    delta = 0.1
    n = 10
    envs = []
    for i in range(n):
        pz, py = convex_recursion_constants(p, i)
        var_i = (2 * py**2 * (pz**20 - pz**10) / (pz**2 - pz)
                 + py**2 * (1 - pz**10) / (1 - pz) ** 2)
        envs.append(1.0 * (pz**10 - 1) / (pz - 1) * py
                    + math.sqrt(1 / (4 * delta)) * 0.0 * var_i)  # lam - gamma = 0
    prefactor = (2 - 1 / n) * math.sqrt(2 * n * math.log(2 / delta)) + 2
    expect = prefactor * max(envs) + 1.0 / n * math.sqrt(2 * n * math.log(2 / delta))
    assert bounds.sgd_generalization_bound(p, delta) == pytest.approx(expect, rel=1e-9)


def test_sgd_generalization_bound_decreasing_in_n_at_fixed_field_size():
    cert = unit_cert(gamma=0.5)
    vals = []
    for n in (16, 32, 64):
        p = bounds.SgdBoundParams(certificate=cert, step_size=0.05, steps=50,
                                  n_vertices=n, field_sizes=np.full(n, 3),
                                  regime=bounds.STRONGLY_CONVEX)
        vals.append(bounds.sgd_generalization_bound(p, 0.1))
    assert vals[0] > vals[1] > vals[2]


# ---------------------------------------------------------------------------
# Sparse-selection confidence


def test_srm_confidence_hand_value_dmax1():
    # beta1 = beta2 = 0, d_max = 1: 2 exp(-eps^2 / (8 N B_L^2))
    n, b_l, eps = 8, 1.0, 2.0
    got = bounds.srm_confidence(0.0, 0.0, b_l, 1.0, 1, n, eps)
    expect = min(1.0, 2 * math.exp(-((eps / 2) ** 2) / (2 * n * b_l**2)))
    assert got == pytest.approx(expect, rel=1e-12)


def test_srm_confidence_vanishes_for_large_epsilon():
    assert bounds.srm_confidence(0.01, 0.02, 1.0, 1.0, 3, 8, 1e6) == pytest.approx(0.0, abs=1e-300)


def test_srm_confidence_monotone_in_dmax():
    vals = [bounds.srm_confidence(0.0, 0.01, 1.0, 1.0, dm, 8, 1.0) for dm in (1, 2, 3, 4)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_srm_floor_enforced():
    beta2, lam = 0.1, 1.0  # floor = 2 (2 - 1) d_max beta2
    floor = bounds.srm_epsilon_floor(beta2, lam, 3)
    assert floor == pytest.approx(2 * 1 * 3 * 0.1)
    with pytest.raises(bounds.SrmFloorError):
        bounds.srm_confidence(0.0, beta2, 1.0, lam, 3, 8, floor * 0.5)


# ---------------------------------------------------------------------------
# Report


def test_bound_report_structure_and_gating():
    report = bounds.bound_report(hand_params(), 0.1)
    assert report["regime"] == bounds.STRONGLY_CONVEX
    assert report["expected_beta2"] is not None
    assert all(v["ok"] for v in report["conditions"].values())
    # failing condition marks bounds not-applicable
    p_bad = bounds.SgdBoundParams(certificate=unit_cert(), step_size=1.9, steps=5,
                                  n_vertices=10, field_sizes=np.full(10, 2),
                                  regime=bounds.STRONGLY_CONVEX)
    bad = bounds.bound_report(p_bad, 0.1)
    assert bad["expected_beta2"] is None
    assert bad["highprob_beta2"] is None


def test_bound_report_nonconvex_divergent_flagged_but_numeric():
    cert = unit_cert(gamma=0.0)
    p = bounds.SgdBoundParams(certificate=cert, step_size=20.0, steps=30,
                              n_vertices=10, field_sizes=np.full(10, 2),
                              regime=bounds.NON_CONVEX)
    report = bounds.bound_report(p, 0.1)
    cond = report["conditions"]["convergence: PM <= 1"]
    assert not cond["ok"]
    assert report["expected_beta2"] is not None and np.isfinite(report["expected_beta2"])


# ---------------------------------------------------------------------------
# Per-vertex arrays against the scalar reference loops


def reference_expected(p, i=None):
    if p.regime == bounds.STRONGLY_CONVEX and not bounds.step_condition_ok(p):
        return None
    lip = p.certificate.lipschitz

    def envelope(j):
        growth, kick = reference_constants(p, j)
        return lip * bounds.geometric_series(growth, p.steps) * kick

    if i is not None:
        return envelope(i)
    best = 0.0
    for j in range(p.n_vertices):
        best = max(best, envelope(j))
    return best


def reference_variances(p):
    consts = [reference_constants(p, i) for i in range(p.n_vertices)]
    return ([bounds.variance_term_loose(g, k, p.steps) for g, k in consts],
            [bounds.variance_term_exact(g, k, p.steps) for g, k in consts])


def reference_highprob(p, delta):
    if p.regime == bounds.STRONGLY_CONVEX and not bounds.step_condition_ok(p):
        return None
    loose, _ = reference_variances(p)
    if any(v < 0.0 for v in loose):
        return None
    var = float(np.array(loose).sum())
    cert = p.certificate
    lip = cert.lipschitz
    log_term = math.log(2.0 / delta)
    if p.regime == bounds.STRONGLY_CONVEX:
        lam, gamma = cert.smoothness, cert.strong_convexity
        sup_env = 0.0
        for i in range(p.n_vertices):
            growth, kick = convex_recursion_constants(p, i)
            sup_env = max(sup_env, bounds.geometric_series(growth, p.steps) * kick)
        gap = (lam - gamma) * math.sqrt(log_term / 8.0)
        chebyshev = math.sqrt(var / delta)
        return (lip + gap) * sup_env + gap * (sup_env + chebyshev) ** 2
    growth = nonconvex_growth_constant(p)
    sup_kick = max(nonconvex_kick_constant(p, i) for i in range(p.n_vertices))
    expected = lip * bounds.geometric_series(growth, p.steps) * sup_kick
    return expected * (1.0 + math.sqrt(log_term / 2.0)) + lip * math.sqrt(log_term / delta * var)


def reference_generalization(p, delta):
    if p.regime == bounds.STRONGLY_CONVEX and not bounds.step_condition_ok(p):
        return None
    loose, _ = reference_variances(p)
    if any(v < 0.0 for v in loose):
        return None
    cert = p.certificate
    n = p.n_vertices
    lip = cert.lipschitz
    prefactor = (2.0 - 1.0 / n) * math.sqrt(2.0 * n * math.log(2.0 / delta)) + 2.0
    tail = cert.loss_bound / n * math.sqrt(2.0 * n * math.log(2.0 / delta))
    sup_env = 0.0
    for i in range(n):
        growth, kick = reference_constants(p, i)
        expected = lip * bounds.geometric_series(growth, p.steps) * kick
        if p.regime == bounds.STRONGLY_CONVEX:
            lam, gamma = cert.smoothness, cert.strong_convexity
            env = expected + math.sqrt(1.0 / (4.0 * delta)) * (lam - gamma) * (4.0 / delta * loose[i])
        else:
            env = expected * (1.0 + math.sqrt(1.0 / delta)) + math.sqrt(4.0 / delta * loose[i])
        sup_env = max(sup_env, env)
    return prefactor * sup_env + tail


def random_params(rng):
    """Bound parameters over both regimes, with field sizes 1 and N present."""
    n = int(rng.integers(2, 25))
    sizes = rng.integers(1, n + 1, size=n)
    sizes[0], sizes[-1] = 1, n
    lam = float(rng.uniform(0.1, 2.0))
    convex = bool(rng.random() < 0.5)
    cert = ConstantsCertificate(
        smoothness=lam, strong_convexity=float(rng.uniform(0.01, lam)) if convex else 0.0,
        lipschitz=float(rng.uniform(0.1, 2.0)), gradient_data_lipschitz=float(rng.uniform(0.0, 2.0)),
        loss_bound=float(rng.uniform(0.1, 2.0)), sample_diameter=float(rng.uniform(0.1, 2.0)),
        weight_radius=1.0,
    )
    if rng.random() < 0.2 and not convex:
        step = n / (n - 1) / lam  # PM = 1 up to rounding, checked by the caller
    else:
        step = float(10.0 ** rng.uniform(-3.0, 0.2))
    return bounds.SgdBoundParams(
        certificate=cert, step_size=step, steps=int(rng.integers(0, 120)), n_vertices=n,
        field_sizes=sizes, regime=bounds.STRONGLY_CONVEX if convex else bounds.NON_CONVEX,
    )


def test_vectorised_bounds_equal_scalar_reference_loops_exactly():
    rng = np.random.default_rng(40)
    seen = {"pm_one": 0, "pm_above_one": 0, "not_applicable": 0, "convex": 0}
    for _ in range(600):
        p = random_params(rng)
        delta = float(rng.uniform(0.01, 0.9))
        n = p.n_vertices
        growth, kick = bounds.recursion_constants(p)
        assert growth.shape == kick.shape == (n,)
        consts = [reference_constants(p, i) for i in range(n)]
        assert growth.tolist() == [g for g, _ in consts]
        assert kick.tolist() == [k for _, k in consts]

        assert bounds.expected_stability_bound(p) == reference_expected(p)
        assert [bounds.expected_stability_bound(p, i) for i in range(n)] \
            == [reference_expected(p, i) for i in range(n)]
        loose, exact = reference_variances(p)
        var = bounds.variance_bound(p)
        assert var.per_vertex_loose.tolist() == loose
        assert var.per_vertex_exact.tolist() == exact
        assert var.total_loose == float(np.array(loose).sum())
        assert var.total_exact == float(np.array(exact).sum())
        highprob = bounds.highprob_stability_bound(p, delta)
        surplus = bounds.sgd_generalization_bound(p, delta)
        assert highprob == reference_highprob(p, delta)
        assert surplus == reference_generalization(p, delta)

        report = bounds.bound_report(p, delta)
        assert [(v["growth"], v["kick"]) for v in report["per_vertex"]] == consts
        assert [v["expected_beta2"] for v in report["per_vertex"]] \
            == [reference_expected(p, i) for i in range(n)]
        assert [v["variance_loose"] for v in report["per_vertex"]] == loose
        assert report["expected_beta2"] == reference_expected(p)
        assert report["highprob_beta2"] == highprob
        assert report["generalization_surplus"] == surplus

        if p.regime == bounds.STRONGLY_CONVEX:
            seen["convex"] += 1
        else:
            pm = nonconvex_growth_constant(p)
            seen["pm_one"] += pm == 1.0
            seen["pm_above_one"] += pm > 1.0
        seen["not_applicable"] += highprob is None
    assert all(count > 0 for count in seen.values()), seen


def test_pm_just_above_one_makes_highprob_bounds_not_applicable():
    # ripple on cycle-10 at a = 1.12: PM = 0.9 * 1.12 = 1.008, and at T = 10
    # the loose second-moment sum is negative, so its square root is undefined
    p = bounds.SgdBoundParams(certificate=unit_cert(gamma=0.0), step_size=1.12, steps=10,
                              n_vertices=10, field_sizes=np.full(10, 3),
                              regime=bounds.NON_CONVEX)
    assert nonconvex_growth_constant(p) == pytest.approx(1.008)
    assert bounds.variance_bound(p).total_loose < 0.0
    assert bounds.highprob_stability_bound(p, 0.1) is None
    assert bounds.sgd_generalization_bound(p, 0.1) is None
    assert bounds.expected_stability_bound(p) > 0.0
    report = bounds.bound_report(p, 0.1)
    assert not report["conditions"]["convergence: PM <= 1"]["ok"]
    assert report["highprob_beta2"] is None and report["generalization_surplus"] is None
