"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Sizes and tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np

from grlstab import bounds, gnn, graphs, sampling, srm
from grlstab.harness import estimate_stability, exact_risk, exhaustive_binary_stability
from grlstab.objectives import (QuadraticFieldObjective, RippleFieldObjective,
                                cocoercivity_check, contraction_check)
from grlstab.sgd import SgdAlgorithm, SgdConfig, coupled_train, envelope_check
from grlstab.seeding import child_rng, seed_int

from gnn_oracles import fit_exact_rowwise, full_objective_gradient, gnn_objective


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


QUAD = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 1.0)
RIPPLE = RippleFieldObjective(3, 1.0, 1.0, 1.0, 1 / 32, 1.0)


# 1 ------------------------------------------------------------------------


def test_criterion_01_contraction_suite():
    started = time.time()
    trials = 10_000
    worst = {}

    r = contraction_check(QUAD, alpha=0.3, trials=trials, seed=101)
    worst["quad general"] = r.max_ratio - r.bound_general
    r = contraction_check(QUAD, alpha=2.0 / QUAD.smoothness, trials=trials, seed=102)
    worst["quad convex"] = r.max_ratio_convex - 1.0
    alpha_sc = 2.0 / (QUAD.smoothness + QUAD.gamma)
    r = contraction_check(QUAD, alpha=alpha_sc, trials=trials, seed=103)
    worst["quad strongly"] = r.max_ratio_strongly - r.bound_strongly
    ok = all(v <= 1e-9 for v in worst.values())

    r = contraction_check(RIPPLE, alpha=0.3, trials=trials, seed=104)
    worst["ripple general"] = r.max_ratio - r.bound_general
    ok = ok and worst["ripple general"] <= 1e-6

    report(1, "contraction suite", ok,
           f"max slack {max(worst.values()):.2e}, {time.time() - started:.1f}s")


# 2 ------------------------------------------------------------------------


def test_criterion_02_cocoercivity():
    started = time.time()
    convex = cocoercivity_check(QUAD, trials=10_000, seed=201)
    nonconvex = cocoercivity_check(RIPPLE, trials=10_000, seed=202)
    ok = convex.max_violation <= 1e-9 and nonconvex.max_violation > 1e-6
    w1, _, w2_a, w2_b = nonconvex.witness
    report(2, "co-coercivity", ok,
           f"convex violation {convex.max_violation:.2e}, non-convex witness "
           f"violation {nonconvex.max_violation:.3f} at |w|={np.linalg.norm(w2_a):.2f},"
           f"{np.linalg.norm(w2_b):.2f}, {time.time() - started:.1f}s")


# 3 ------------------------------------------------------------------------


def test_criterion_03_per_step_envelopes():
    started = time.time()
    n, steps, runs = 16, 200, 1000
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    sampler = sampling.IidSampler(rf=rf, dim=3)

    # strongly convex: the bounds' validity conditions hold (the envelopes
    # need only alpha <= 2/(lam + gamma), at any radius)
    obj_sc = QuadraticFieldObjective(3, 1.0, 0.5, 1.0, 1.0, 0.15)
    alpha = 0.1
    cert = obj_sc.certificate
    assert bounds.bound_terms(bounds.SgdBoundParams(
        certificate=cert, step_size=alpha, steps=steps, n_vertices=n,
        field_sizes=rf.sizes, regime=bounds.STRONGLY_CONVEX)).applicable
    worst_margin = np.inf
    for run in range(runs):
        z = sampler.sample(seed_int(301, "draw", run))
        vertex = run % n
        z_i = sampler.replace(z, [vertex], seed_int(301, "repl", run))
        trace = coupled_train(z, z_i, rf, obj_sc,
                              SgdConfig(step_size=alpha, steps=steps,
                                        seed=seed_int(301, "sgd", run)))
        rep = envelope_check(trace, obj_sc)
        worst_margin = min(worst_margin, float(rep.margins.min()))
    ok_sc = worst_margin >= -1e-9

    obj_nc = RIPPLE
    worst_margin_nc = np.inf
    for run in range(runs):
        z = sampler.sample(seed_int(302, "draw", run))
        vertex = run % n
        z_i = sampler.replace(z, [vertex], seed_int(302, "repl", run))
        trace = coupled_train(z, z_i, rf, obj_nc,
                              SgdConfig(step_size=0.05, steps=steps,
                                        seed=seed_int(302, "sgd", run)))
        rep = envelope_check(trace, obj_nc)
        worst_margin_nc = min(worst_margin_nc, float(rep.margins.min()))
    ok_nc = worst_margin_nc >= -1e-9

    report(3, "per-step envelopes", ok_sc and ok_nc,
           f"worst margins: convex {worst_margin:.2e}, non-convex "
           f"{worst_margin_nc:.2e}, {time.time() - started:.1f}s")


# 4/5 shared machinery -------------------------------------------------------


def _beta2_replicates(regime, n, steps, replicates, master):
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    sampler = sampling.IidSampler(rf=rf, dim=3)
    if regime == bounds.STRONGLY_CONVEX:
        obj, alpha = QUAD, 0.1
    else:
        obj, alpha = RIPPLE, 1.0
    params = bounds.SgdBoundParams(
        certificate=obj.certificate, step_size=alpha, steps=steps,
        n_vertices=n, field_sizes=rf.sizes, regime=regime,
    )
    values = []
    for rep in range(replicates):
        alg = SgdAlgorithm(obj, rf, SgdConfig(step_size=alpha, steps=steps,
                                              seed=seed_int(master, "alg", rep)))
        est = estimate_stability(alg, sampler, 2, 2, seed_int(master, "est", rep))
        values.append(est.beta2)
    return np.array(values), params


def test_criterion_04_expected_bound_domination():
    started = time.time()
    failures = []
    details = []
    for regime in (bounds.STRONGLY_CONVEX, bounds.NON_CONVEX):
        for n in (8, 16):
            for steps in (50, 200):
                values, params = _beta2_replicates(regime, n, steps, 32,
                                                   seed_int(401, regime, n, steps))
                bound = bounds.expected_stability_bound(params)
                mean = float(values.mean())
                se = float(values.std(ddof=1) / math.sqrt(len(values)))
                if not mean <= bound + 2 * se:
                    failures.append((regime, n, steps, mean, bound))
                details.append(f"{regime[:4]}/N{n}/T{steps}: {mean:.3f}<={bound:.3f}")
    report(4, "expected-bound domination", not failures,
           "; ".join(details[:4]) + f" ... {time.time() - started:.1f}s")


def test_criterion_05_highprob_domination():
    started = time.time()
    delta = 0.1
    replicates = 200
    allowance = delta + 1.645 * math.sqrt(delta * (1 - delta) / replicates)
    results = []
    ok = True
    for regime in (bounds.STRONGLY_CONVEX, bounds.NON_CONVEX):
        values, params = _beta2_replicates(regime, 8, 50, replicates,
                                           seed_int(501, regime))
        bound = bounds.highprob_stability_bound(params, delta)
        frac = float(np.mean(values > bound))
        ok = ok and frac <= allowance
        results.append(f"{regime[:4]}: frac {frac:.3f} <= {allowance:.3f} (bound {bound:.2f})")
    report(5, "high-probability domination", ok,
           "; ".join(results) + f", {time.time() - started:.1f}s")


# 6 ------------------------------------------------------------------------


def test_criterion_06_recursion_equivalence():
    started = time.time()
    rng = child_rng(601, "draws")
    worst = 0.0
    for _ in range(1000):
        steps = int(rng.integers(1, 250))
        mode = int(rng.integers(0, 3))
        if mode == 0:
            growth = float(rng.uniform(0.2, 1.5))
        elif mode == 1:
            growth = 1.0 + float(rng.uniform(-1e-6, 1e-6))
        else:
            growth = 1.0 + float(rng.choice([-1.0, 1.0])) * 10.0 ** float(rng.uniform(-12, -7))
        kick = float(rng.uniform(0.001, 1.0))
        lip = float(rng.uniform(0.1, 2.0))

        # geometric kernel vs direct summation
        loop_geom = 0.0
        for t in range(steps):
            loop_geom += growth**t
        err = abs(bounds.geometric_series(growth, steps) - loop_geom) / abs(loop_geom)
        worst = max(worst, err)

        # double-geometric kernel vs its summation
        loop_dg = 0.0
        for s in range(steps):
            loop_dg += growth ** (steps - 1 - s) * (growth**2) ** s
        err = abs(bounds.double_geometric(growth, steps) - loop_dg) / abs(loop_dg)
        worst = max(worst, err)

        # first-moment closed form vs iterating m_t = g m + k
        m = 0.0
        for _t in range(steps):
            m = growth * m + kick
        closed = lip * bounds.geometric_series(growth, steps) * kick
        err = abs(closed - lip * m) / abs(lip * m)
        worst = max(worst, err)

        # second-moment closed form vs iterating v_t = g^2 v + 2 k g m + k^2
        v = m = 0.0
        for _t in range(steps):
            v = growth * growth * v + 2 * kick * growth * m + kick * kick
            m = growth * m + kick
        closed_v = bounds.variance_term_exact(growth, kick, steps)
        err = abs(closed_v - v) / abs(v)
        worst = max(worst, err)

    report(6, "recursion equivalence", worst <= 1e-9,
           f"worst relative error {worst:.2e}, {time.time() - started:.1f}s")


# 7 ------------------------------------------------------------------------


def test_criterion_07_concentration():
    started = time.time()
    n = 6
    g = graphs.cycle_graph(n)
    rf = graphs.one_hop_receptive_fields(g)
    spec = sampling.IsingSpec(coupling=0.15 * g.adjacency.astype(float),
                              external_field=np.full(n, 0.05), rf=rf)
    alpha = sampling.dobrushin_exact(spec)
    sampler = sampling.IsingSampler(spec=spec, sweeps=1000)
    spins = sampler.sample_spins_batch(100_000, seed=701)
    phi = (spins > 0).sum(axis=1)
    configs = sampling.enumerate_spin_configs(n)
    probs = sampling.gibbs_probabilities(spec)
    phi_mean = float(probs @ (configs > 0).sum(axis=1))
    c = np.ones(n)
    ok = True
    rows = []
    for t in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]:
        emp = float(np.mean(phi - phi_mean >= t))
        theory = bounds.concentration_tail(c, alpha, t)
        ok = ok and emp <= theory
        rows.append(f"t={t}: {emp:.4f}<={theory:.4f}")
    report(7, "concentration tail", ok,
           f"alpha={alpha:.3f}; " + "; ".join(rows[:3]) + f" ... {time.time() - started:.1f}s")


# 8 ------------------------------------------------------------------------


def test_criterion_08_dobrushin_oracle():
    started = time.time()
    rf4 = graphs.one_hop_receptive_fields(graphs.empty_graph(4))
    product = sampling.IsingSpec(coupling=np.zeros((4, 4)),
                                 external_field=np.array([0.3, -0.2, 0.0, 1.0]), rf=rf4)
    ok = sampling.dobrushin_exact(product) == 0.0

    g2 = graphs.build_graph(2, [(0, 1)])
    rf2 = graphs.one_hop_receptive_fields(g2)
    for j in (0.1, 0.25, 0.5, 0.8):
        spec2 = sampling.IsingSpec(coupling=j * g2.adjacency.astype(float),
                                   external_field=np.zeros(2), rf=rf2)
        ok = ok and abs(sampling.dobrushin_exact(spec2) - math.tanh(j)) <= 1e-12

    rng = child_rng(801, "specs")
    worst_gap = np.inf
    for trial in range(100):
        n = int(rng.integers(2, 9))
        graph = graphs.erdos_renyi_graph(n, 0.5, seed_int(801, "g", trial))
        rf = graphs.one_hop_receptive_fields(graph)
        coupling = graph.adjacency.astype(float) * float(rng.uniform(-0.5, 0.5))
        spec = sampling.IsingSpec(coupling=coupling,
                                  external_field=rng.normal(size=n) * 0.3, rf=rf)
        gap = sampling.dobrushin_upper_bound(spec) - sampling.dobrushin_exact(spec)
        worst_gap = min(worst_gap, gap)
        ok = ok and gap >= -1e-12
    report(8, "dobrushin oracle", ok,
           f"min upper-minus-exact gap {worst_gap:.2e}, {time.time() - started:.1f}s")


# 9 ------------------------------------------------------------------------


def test_criterion_09_gnn_solver():
    started = time.time()
    rng = child_rng(901, "gnn")
    ok = True
    worst_grad = 0.0
    worst_gap = np.inf
    for trial in range(100):
        n = int(rng.integers(4, 10))
        graph = graphs.erdos_renyi_graph(n, 0.5, seed_int(901, "g", trial))
        rf = graphs.one_hop_receptive_fields(graph)
        dim = 3
        x = rng.normal(size=(n, dim))
        x /= np.maximum(1.0, np.linalg.norm(x, axis=1, keepdims=True))
        y = rng.uniform(-1, 1, size=n)
        w = rng.normal(size=dim)
        w *= 0.8 / np.linalg.norm(w)
        masked = gnn.GnnProblem(features=x, labels=y, weight=w,
                                mask=rf.mask, ridge=0.9)
        full = gnn.GnnProblem(features=x, labels=y, weight=w,
                              mask=np.ones((n, n), dtype=bool), ridge=0.9)
        a_full = gnn.fit_projected_closed_form(full)
        grad = float(np.linalg.norm(full_objective_gradient(full, a_full)))
        worst_grad = max(worst_grad, grad)
        ok = ok and grad <= 1e-10
        gap = (gnn_objective(masked, gnn.fit_projected_closed_form(masked))
               - gnn_objective(masked, fit_exact_rowwise(masked)))
        worst_gap = min(worst_gap, gap)
        ok = ok and gap >= -1e-12
        ok = ok and np.allclose(fit_exact_rowwise(full), a_full, atol=1e-12)
    report(9, "gnn solver", ok,
           f"max full-mask grad {worst_grad:.1e}, min dominance gap {worst_gap:.1e}, "
           f"{time.time() - started:.1f}s")


# 10 -----------------------------------------------------------------------


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def test_criterion_10_scaling_slope():
    started = time.time()
    densities = [0.03, 0.06, 0.12, 0.25, 0.5]
    results = [gnn.sweep_point(p, di, rep, n=64, trials=2, seed=1001)
               for di, p in enumerate(densities) for rep in range(16)]
    slope = loglog_slope([r.sup_d for r in results], [r.beta2 for r in results])
    report(10, "type-2 scaling slope", 0.6 <= slope <= 1.4,
           f"slope {slope:.3f} over {len(results)} points, {time.time() - started:.1f}s")


# 11 -----------------------------------------------------------------------


def test_criterion_11_discrepancy_lower_bounds():
    started = time.time()
    details = []
    ok = True
    for kind, eps in (("label", 0.0), ("feature-first-order", 0.05)):
        medians = []
        for n in (20, 40, 80):
            rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
            vals = []
            for rep in range(6):
                res = gnn.gnn_stability_experiment(
                    rf, kind, trials=2, eps_feature=eps,
                    seed=seed_int(1101, kind, n, rep),
                )
                gap = res.beta2 - res.beta1
                vals.append(n * gap if kind == "label" else gap / res.inf_d)
            medians.append(float(np.median(vals)))
        non_vanishing = min(medians) > 0 and min(medians) >= 0.25 * max(medians)
        ok = ok and non_vanishing
        details.append(f"{kind}: medians {[round(m, 3) for m in medians]}")
    report(11, "discrepancy lower bounds", ok,
           "; ".join(details) + f", {time.time() - started:.1f}s")


# 12 -----------------------------------------------------------------------


def test_criterion_12_generalization_frequency():
    started = time.time()
    n = 6
    g = graphs.cycle_graph(n)
    rf = graphs.one_hop_receptive_fields(g)
    spec = sampling.IsingSpec(coupling=0.2 * g.adjacency.astype(float),
                              external_field=np.full(n, 0.1), rf=rf,
                              label_rule="self")
    sampler = sampling.IsingSampler(spec=spec, sweeps=1000)
    obj = QUAD
    alg = SgdAlgorithm(obj, rf, SgdConfig(step_size=0.1, steps=50, seed=1201))

    exact = exhaustive_binary_stability(alg, spec)
    alpha = sampling.dobrushin_exact(spec)
    delta = 0.1
    surplus = bounds.generalization_bound_single(
        exact.beta1, exact.beta2, obj.certificate.loss_bound, rf.d, alpha, delta)

    trials = 200
    spins = sampler.sample_spins_batch(trials, seed=1202)
    violations = 0
    for t in range(trials):
        z = alg.prepare(spec.sample_set_from_spins(spins[t], seed=t))
        h = alg.train([z])
        train_risk = float(alg.losses(h, z).mean())
        gap = exact_risk(alg, h, spec) - train_risk
        if gap > surplus:
            violations += 1
    frac = violations / trials
    report(12, "generalization frequency", frac <= delta,
           f"violations {violations}/200 (bound surplus {surplus:.2f}, "
           f"alpha {alpha:.3f}), {time.time() - started:.1f}s")


# 13 -----------------------------------------------------------------------


def test_criterion_13_srm():
    started = time.time()
    n, d_max = 8, 3
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(n))
    family = srm.DegreeClassFamily(rf=rf, d_max=d_max, dim=3, weight_radius=1.0,
                                   b_x=1.0, b_y=1.0)
    sampler = sampling.IidSampler(rf=rf, dim=3)

    beta2_by_degree = {}
    for d in range(1, d_max + 1):
        est = estimate_stability(srm.SrmClassAlgorithm(family, d), sampler, 2, 2,
                                 seed_int(1301, "beta", d))
        beta2_by_degree[d] = est.beta2
    increasing_penalty = all(
        d1 * beta2_by_degree[d1] < d2 * beta2_by_degree[d2]
        for d1, d2 in zip(range(1, d_max), range(2, d_max + 1))
    )

    monotone = True
    for inst in range(10):
        z = sampler.sample(seed_int(1302, "inst", inst))
        degrees = [srm.select_sparse(family, z, lam, beta2_by_degree).selected.degree
                   for lam in (0.0, 0.1, 1.0, 10.0)]
        monotone = monotone and all(b <= a for a, b in zip(degrees, degrees[1:]))

    beta2 = max(beta2_by_degree.values())
    lam = 1.0
    floor = max(0.0, bounds.srm_epsilon_floor(beta2, lam, d_max))
    b_l = family.loss_bound()
    # one epsilon just above the floor and one far enough out that the
    # reported failure probability is strictly inside (0, 1)
    eps_values = [floor + 0.75,
                  floor + 2.0 * b_l * d_max * math.sqrt(2.0 * n * math.log(24.0))]
    ok = increasing_penalty and monotone
    freqs = []
    confs = []
    for eps in eps_values:
        confidence = bounds.srm_confidence(0.0, beta2, b_l, lam, d_max, n, eps)
        violations = 0
        instances = 100
        for inst in range(instances):
            z = sampler.sample(seed_int(1303, "train", inst))
            sel = srm.select_sparse(family, z, lam, beta2_by_degree)
            holdout = [sampler.sample(seed_int(1303, "hold", inst, k)) for k in range(3)]
            record = srm.srm_report(sel, family, holdout, eps, beta1=0.0, n_vertices=n)
            if not record.satisfied:
                violations += 1
        freqs.append(violations / instances)
        confs.append(confidence)
        ok = ok and freqs[-1] <= confidence
    ok = ok and 0.0 < confs[1] < 1.0
    report(13, "srm selection", ok,
           f"monotone degrees {monotone}, violation freqs {freqs} <= "
           f"confidences {[round(c, 4) for c in confs]}, {time.time() - started:.1f}s")


# 14 -----------------------------------------------------------------------


def test_criterion_14_reproducibility(tmp_path):
    started = time.time()
    from grlstab.cli import main as cli_main

    out = tmp_path / "rep"
    config = tmp_path / "rep.ini"
    config.write_text(f"""
experiment = compare
seed = 1401
out = {out}
graph.kind = cycle
graph.n = 16
sampler.kind = iid
objective = quadratic
sgd.step_size = 0.1
sgd.steps = 50
harness.pert_draws = 2
harness.test_draws = 2
delta = 0.1
""")
    assert cli_main(["run", str(config)]) == 0
    first = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    first["summary.json"] = (out / "summary.json").read_bytes()
    assert cli_main(["run", str(config)]) == 0
    second = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    second["summary.json"] = (out / "summary.json").read_bytes()
    ok = first == second and len(first) >= 2
    report(14, "reproducibility", ok,
           f"{len(first)} result files byte-identical, {time.time() - started:.1f}s")
