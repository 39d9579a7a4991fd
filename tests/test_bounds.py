import math

import numpy as np
import pytest

from grlstab import bounds, graphs
from grlstab.objectives import (ConstantsCertificate, QuadraticFieldObjective,
                                RippleFieldObjective, contraction_check)


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
# recursion, which the exact form of bounds.bound_terms must equal


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
    A = g^2, B = g, C = 2 g k^2/(g-1), D = k^2(g+1)/(1-g) for growth g, kick k."""
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


def reference_constants(p, i):
    """Scalar (growth_i, kick_i) at vertex i, written out: the hit/self/miss
    average of the per-step growths (c, 1, c) and kicks (a B_Z zeta, 2 a L, 0)
    weighted (NN_i - 1, 1, N - NN_i)/N, with c = rho = 1 - a lam gamma/(lam +
    gamma) (strongly convex) or 1 + a lam (non-convex)."""
    cert = p.certificate
    lam, gamma = cert.smoothness, cert.strong_convexity
    a = p.step_size
    n = p.n_vertices
    nn = p.field_sizes[i]
    if p.regime == bounds.STRONGLY_CONVEX:
        c = 1.0 - a * lam * gamma / (lam + gamma)
    else:
        c = 1.0 + a * lam
    growth = c * (nn - 1) / n + 1.0 / n + c * (n - nn) / n
    kick = a * cert.sample_diameter * cert.gradient_data_lipschitz * (nn - 1) / n \
        + 2.0 * a * cert.lipschitz / n
    return float(growth), float(kick)


def reference_applicable(p):
    """Both strongly convex validity conditions, written out: the paper's
    step-size domain and the contraction lemma's a <= 2/(lam + gamma)."""
    if p.regime != bounds.STRONGLY_CONVEX:
        return True
    a = p.step_size
    lam, gamma = p.certificate.smoothness, p.certificate.strong_convexity
    return a**4 * lam**2 + 2.0 * a * lam * gamma / (lam + gamma) <= 1.0 \
        and a <= 2.0 / (lam + gamma)


def test_hand_substitution_constants():
    # rho = 1 - 0.1 / 2 = 0.95, growth = rho + (1 - rho)/10
    p = hand_params()
    growth, kick = reference_constants(p, 0)
    assert growth == pytest.approx(0.955)
    assert kick == pytest.approx(0.03)
    terms = bounds.bound_terms(p)
    step, contraction = terms.conditions.values()
    assert step["value"] == pytest.approx(0.1001) and step["ok"]
    assert contraction["value"] == 0.1 and contraction["ok"]
    assert terms.applicable


def test_zero_step_limits():
    cert = unit_cert()
    for alpha in (1e-9, 1e-6):
        p = bounds.SgdBoundParams(certificate=cert, step_size=alpha, steps=5,
                                  n_vertices=10, field_sizes=np.full(10, 2),
                                  regime=bounds.STRONGLY_CONVEX)
        growth, kick = reference_constants(p, 0)
        assert growth == pytest.approx(1.0, abs=1e-5)
        assert kick == pytest.approx(0.0, abs=1e-5)


def test_isolated_vertex_kick_only_self_term():
    cert = unit_cert()
    p = bounds.SgdBoundParams(certificate=cert, step_size=0.1, steps=5,
                              n_vertices=10, field_sizes=np.full(10, 1),
                              regime=bounds.STRONGLY_CONVEX)
    _, kick = reference_constants(p, 0)
    assert kick == pytest.approx(2 * 0.1 * 1.0 / 10)


def test_nonconvex_growth_constant():
    cert = unit_cert(gamma=0.0)
    p = bounds.SgdBoundParams(certificate=cert, step_size=0.1, steps=5,
                              n_vertices=10, field_sizes=np.full(10, 2),
                              regime=bounds.NON_CONVEX)
    assert reference_constants(p, 0)[0] == pytest.approx(1.0 + 0.9 * 0.1, rel=1e-15)


# ---------------------------------------------------------------------------
# Expected stability


def test_expected_bound_zero_steps():
    assert bounds.expected_stability_bound(hand_params(steps=0), 0) == 0.0


def test_expected_bound_hand_value():
    # L * geom(0.955, 10) * 0.03, with the geometric sum from a loop oracle
    expect = 1.0 * geom_loop(0.955, 10) * 0.03
    assert bounds.expected_stability_bound(hand_params(), 0) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.2460, abs=2e-4)


def test_expected_bound_nonconvex_growth_limits():
    # growth at 1 (a lam -> 0) collapses to the arithmetic sum L * T * PY_i
    # (the limit kernel); at growth 2 the series is 2^T - 1
    n = 10
    cert0 = ConstantsCertificate(smoothness=1e-12, strong_convexity=0.0, lipschitz=1.0,
                                 gradient_data_lipschitz=1.0, loss_bound=1.0,
                                 sample_diameter=1.0, weight_radius=1.0)
    p0 = bounds.SgdBoundParams(certificate=cert0, step_size=0.1, steps=7,
                               n_vertices=n, field_sizes=np.full(n, 2),
                               regime=bounds.NON_CONVEX)
    growth0, kick0 = reference_constants(p0, 0)
    assert growth0 == pytest.approx(1.0, abs=1e-12)
    assert bounds.expected_stability_bound(p0, 0) == pytest.approx(7 * kick0, rel=1e-9)

    cert = ConstantsCertificate(smoothness=1.0, strong_convexity=0.0, lipschitz=1.0,
                                gradient_data_lipschitz=1.0, loss_bound=1.0,
                                sample_diameter=1.0, weight_radius=1.0)
    alpha_unit = n / (n - 1)  # makes (N-1)/N * alpha * lam = 1, so growth 2
    p = bounds.SgdBoundParams(certificate=cert, step_size=alpha_unit, steps=7,
                              n_vertices=n, field_sizes=np.full(n, 2),
                              regime=bounds.NON_CONVEX)
    growth, kick = reference_constants(p, 0)
    assert growth == pytest.approx(2.0, abs=1e-12)
    assert bounds.expected_stability_bound(p, 0) == pytest.approx(127 * kick, rel=1e-9)


def test_expected_bound_not_applicable_when_condition_fails():
    cert = unit_cert()
    p = bounds.SgdBoundParams(certificate=cert, step_size=1.9, steps=5,
                              n_vertices=10, field_sizes=np.full(10, 2),
                              regime=bounds.STRONGLY_CONVEX)
    assert not bounds.bound_terms(p).applicable
    assert bounds.expected_stability_bound(p) is None
    assert bounds.highprob_stability_bound(p, 0.1) is None


# ---------------------------------------------------------------------------
# Variance


def test_variance_zero_cases():
    p = hand_params(steps=0)
    terms = bounds.bound_terms(p)
    assert terms.loose.sum() == 0.0 and terms.exact.sum() == 0.0
    # zero kick
    cert = unit_cert(zeta=0.0, lip=0.0)
    p2 = bounds.SgdBoundParams(certificate=cert, step_size=0.1, steps=10,
                               n_vertices=10, field_sizes=np.full(10, 2),
                               regime=bounds.STRONGLY_CONVEX)
    terms2 = bounds.bound_terms(p2)
    assert terms2.loose.sum() == 0.0 and terms2.exact.sum() == 0.0


def test_variance_exact_matches_recursion_loop():
    p = hand_params(steps=10)
    g, k = reference_constants(p, 0)
    v = m = 0.0
    for _ in range(10):
        v = g * g * v + 2 * k * g * m + k * k
        m = g * m + k
    assert bounds.bound_terms(p).exact[0] == pytest.approx(v, rel=1e-9)
    # exact solution equals the A/B/C/D difference-equation solution
    a, b, c, d = variance_abcd_coefficients(g, k)
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
        g, k = reference_constants(p, i)
        envs.append((g**10 - 1) / (g - 1) * k)
        var_sum += (2 * k**2 * (g**20 - g**10) / (g**2 - g)
                    + k**2 * (1 - g**10) / (1 - g) ** 2)
    sup_env = max(envs)
    gap = (lam - gamma) * math.sqrt(math.log(2 / delta) / 8)
    expected = (lip + gap) * sup_env + gap * (sup_env + math.sqrt(var_sum / delta)) ** 2
    assert bounds.highprob_stability_bound(p, delta) == pytest.approx(expected, rel=1e-9)


def test_highprob_nonconvex_dual_implementation():
    # T = 30 is long enough for the loose second moment of growth 1.09 to be
    # positive (it is negative up to T = 20)
    cert = unit_cert(gamma=0.0)
    p = bounds.SgdBoundParams(certificate=cert, step_size=0.1, steps=30,
                              n_vertices=10, field_sizes=np.full(10, 2),
                              regime=bounds.NON_CONVEX)
    delta = 0.1
    g = 1.0 + 0.9 * 0.1
    py = 0.03
    expected_term = 1.0 * (g**30 - 1) / (g - 1) * py
    var_sum = 10 * (2 * py**2 * (g**60 - g**30) / (g**2 - g)
                    + py**2 * (1 - g**30) / (1 - g) ** 2)
    assert var_sum > 0
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


@pytest.mark.parametrize("step_size", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_step_size_not_finite_and_positive_rejected(step_size):
    with pytest.raises(ValueError, match="step size must be finite and > 0"):
        bounds.SgdBoundParams(certificate=unit_cert(), step_size=step_size, steps=10,
                              n_vertices=10, field_sizes=np.full(10, 2),
                              regime=bounds.STRONGLY_CONVEX)


@pytest.mark.parametrize("t", [math.nan, -1.0])
def test_concentration_tail_rejects_threshold_not_at_least_zero(t):
    with pytest.raises(bounds.BoundDomainError, match="threshold t must be >= 0"):
        bounds.concentration_tail(np.ones(4), 0.0, t)


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
        g, k = reference_constants(p, i)
        var_i = (2 * k**2 * (g**20 - g**10) / (g**2 - g)
                 + k**2 * (1 - g**10) / (1 - g) ** 2)
        envs.append(1.0 * (g**10 - 1) / (g - 1) * k
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


def test_bound_report_nonconvex_has_no_conditions_and_stays_numeric():
    # growth 1 + 0.9 * 20 = 19: the non-convex regime has no condition to fail,
    # and a large growth still gives a finite bound
    cert = unit_cert(gamma=0.0)
    p = bounds.SgdBoundParams(certificate=cert, step_size=20.0, steps=30,
                              n_vertices=10, field_sizes=np.full(10, 2),
                              regime=bounds.NON_CONVEX)
    report = bounds.bound_report(p, 0.1)
    assert report["conditions"] == {}
    assert report["per_vertex"][0]["growth"] == pytest.approx(19.0, rel=1e-15)
    assert report["expected_beta2"] is not None and np.isfinite(report["expected_beta2"])


def cycle8_params(obj, step_size, steps):
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(8))
    return bounds.SgdBoundParams(certificate=obj.certificate, step_size=step_size, steps=steps,
                                 n_vertices=8, field_sizes=rf.sizes, regime=obj.regime)


# the default ripple and quadratic objectives of a ``bounds`` run on cycle-8:
# at a = 0.05 the ripple growth 1.04375 squares the exact second moment past
# float range at T = 8500, and sums the per-vertex ones past it at T = 8250;
# at a = 1e80 the step-size condition's a^4 leaves it
RIPPLE = RippleFieldObjective(3, 1.0, 1.0, 1.0, None, 1.0, 4.0)
FLOAT_RANGE_CASES = {
    "ripple-8250": (RIPPLE, 0.05, 8250),
    "ripple-8500": (RIPPLE, 0.05, 8500),
    "quadratic-1e80": (QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0), 1e80, 100),
}


def test_power_is_the_float_power_or_a_signed_infinity():
    assert bounds._power(1.04375, 8500) == 1.04375**8500
    assert bounds._power(1.04375, 17000) == math.inf
    assert bounds._power(-1e200, 3) == -math.inf
    assert bounds._power(-1e200, 4) == math.inf


@pytest.mark.parametrize("case", sorted(FLOAT_RANGE_CASES))
def test_report_past_float_range_is_a_domain_error(case):
    # bound_terms used to raise OverflowError at 8500 and 1e80, and the
    # report at 8250 held Infinity (invalid JSON)
    p = cycle8_params(*FLOAT_RANGE_CASES[case])
    bounds.bound_terms(p)
    with pytest.raises(bounds.BoundDomainError, match=f"at sgd.steps = {p.steps} "):
        bounds.bound_report(p, 0.1)


def test_ripple_exact_second_moment_leaves_float_range_by_8500_steps():
    report = bounds.bound_report(cycle8_params(RIPPLE, 0.05, 8000), 0.1)
    assert np.isfinite(report["variance_sum_exact"]) and np.isfinite(report["highprob_beta2"])
    assert np.all(np.isinf(bounds.bound_terms(cycle8_params(RIPPLE, 0.05, 8500)).exact))


# ---------------------------------------------------------------------------
# Per-vertex arrays against the scalar reference loops


def reference_expected(p, i=None):
    if not reference_applicable(p):
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
    if not reference_applicable(p):
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
            growth, kick = reference_constants(p, i)
            sup_env = max(sup_env, bounds.geometric_series(growth, p.steps) * kick)
        gap = (lam - gamma) * math.sqrt(log_term / 8.0)
        chebyshev = math.sqrt(var / delta)
        return (lip + gap) * sup_env + gap * (sup_env + chebyshev) ** 2
    expected = reference_expected(p)
    return expected * (1.0 + math.sqrt(log_term / 2.0)) + lip * math.sqrt(log_term / delta * var)


def reference_generalization(p, delta):
    if not reference_applicable(p):
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
        # growth within BRANCH_WIDTH of 1: the limit kernel, checked by the caller
        step = float(10.0 ** rng.uniform(-10.0, -8.0)) / lam
    else:
        step = float(10.0 ** rng.uniform(-3.0, 0.2))
    return bounds.SgdBoundParams(
        certificate=cert, step_size=step, steps=int(rng.integers(0, 120)), n_vertices=n,
        field_sizes=sizes, regime=bounds.STRONGLY_CONVEX if convex else bounds.NON_CONVEX,
    )


def test_vectorised_bounds_equal_scalar_reference_loops_exactly():
    rng = np.random.default_rng(40)
    seen = {"growth_at_one": 0, "loose_negative": 0, "not_applicable": 0, "convex": 0}
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
        terms = bounds.bound_terms(p)
        assert terms.loose.tolist() == loose
        assert terms.exact.tolist() == exact
        assert float(terms.loose.sum()) == float(np.array(loose).sum())
        assert float(terms.exact.sum()) == float(np.array(exact).sum())
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
            seen["growth_at_one"] += abs(growth[0] - 1.0) < bounds.BRANCH_WIDTH
            seen["loose_negative"] += min(loose, default=0.0) < 0.0
        seen["not_applicable"] += highprob is None
    assert all(count > 0 for count in seen.values()), seen


def case_average(p, k):
    """Entry k of ``step_cases`` (0 growth, 1 kick) averaged over the case
    probabilities (NN_i - 1)/N, 1/N and (N - NN_i)/N, as an (N,) array."""
    cases = bounds.step_cases(p.certificate, p.step_size, p.regime)
    n, sizes = p.n_vertices, p.field_sizes
    return (cases["hit"][k] * (sizes - 1) / n + cases["self"][k] / n
            + cases["miss"][k] * (n - sizes) / n)


def test_recursion_constants_are_the_case_table_average():
    # growth and kick are the table average bit for bit in both regimes
    rng = np.random.default_rng(41)
    seen = {bounds.NON_CONVEX: 0, bounds.STRONGLY_CONVEX: 0}
    for _ in range(2000):
        p = random_params(rng)
        growth, kick = bounds.recursion_constants(p)
        assert growth.tolist() == case_average(p, 0).tolist()
        assert kick.tolist() == case_average(p, 1).tolist()
        seen[p.regime] += 1
    assert all(count > 0 for count in seen.values()), seen


def hole_params():
    """Quadratic on cycle-16 at lam = 100, gamma = 1, a = 0.03: inside the
    step-size domain, outside a <= 2/(lam + gamma)."""
    obj = QuadraticFieldObjective(3, 100.0, 1.0, 1.0, 1.0, 1.0)
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(16))
    return obj, bounds.SgdBoundParams(certificate=obj.certificate, step_size=0.03, steps=200,
                                      n_vertices=16, field_sizes=rf.sizes, regime=obj.regime)


def test_bounds_not_applicable_outside_the_contraction_condition():
    obj, p = hole_params()
    step, contraction = bounds.bound_report(p, 0.1)["conditions"].values()
    assert step["value"] == pytest.approx(0.0675, abs=1e-4) and step["ok"]
    assert not contraction["ok"]
    assert bounds.expected_stability_bound(p) is None
    assert bounds.highprob_stability_bound(p, 0.1) is None
    assert bounds.sgd_generalization_bound(p, 0.1) is None
    # the same-data step is measurably expansive there, not rho-contractive
    rho = 1.0 - 0.03 * 100.0 / 101.0
    assert contraction_check(obj, 0.03, 2000, 5).max_ratio > rho


def test_applicable_is_the_conjunction_of_the_reported_conditions():
    rng = np.random.default_rng(42)
    specs = [random_params(rng) for _ in range(500)] + [hole_params()[1]]
    for p in specs:
        conditions = bounds.bound_report(p, 0.1)["conditions"]
        applicable = bounds.bound_terms(p).applicable
        assert applicable == all(c["ok"] for c in conditions.values())
        assert applicable == reference_applicable(p)


def test_growth_above_one_at_small_t_makes_highprob_bounds_not_applicable():
    # ripple on cycle-10 at a = 0.05: growth 1 + 0.9 * 0.05 = 1.045, and at
    # T = 10 the loose second-moment sum is negative, so its square root is
    # undefined
    p = bounds.SgdBoundParams(certificate=unit_cert(gamma=0.0), step_size=0.05, steps=10,
                              n_vertices=10, field_sizes=np.full(10, 3),
                              regime=bounds.NON_CONVEX)
    assert reference_constants(p, 0)[0] == pytest.approx(1.045, rel=1e-15)
    assert bounds.bound_terms(p).loose.sum() < 0.0
    assert bounds.highprob_stability_bound(p, 0.1) is None
    assert bounds.sgd_generalization_bound(p, 0.1) is None
    assert bounds.expected_stability_bound(p) > 0.0
    report = bounds.bound_report(p, 0.1)
    assert report["conditions"] == {}
    assert report["highprob_beta2"] is None and report["generalization_surplus"] is None
