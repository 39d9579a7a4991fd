"""Batch experiment runner.

    grlstab run <config.ini>        execute the experiment named in the config
    grlstab plots <dir> <kind>      emit tidy plot-data CSVs from results

Experiment kinds: sample, train, stability, gnn, bounds, compare, srm,
concentration. All randomness flows from the mandatory master seed through
named child streams, so reruns produce byte-identical result CSVs (wall
time lives only in the manifest). Exit codes: 0 success, 1 user error,
2 internal error; errors are reported as JSON on stderr. A rejected
config leaves no output directory: the result writers create it with the
first file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import gnn as gnn_mod
from . import graphs, sampling, srm
from .config import ConfigError, ExperimentConfig, load_config
from .harness import estimate_mu, estimate_stability
from .objectives import QuadraticFieldObjective, RippleFieldObjective, row_norms
from .reporting import config_hash, read_csv, write_csv, write_json, write_manifest
from .sgd import SgdAlgorithm, SgdConfig, coupled_train, envelope_check, train
from .seeding import seed_int


# ---------------------------------------------------------------------------
# Config-driven builders


def build_graph(cfg: ExperimentConfig) -> graphs.Graph:
    kind = cfg.get_str("graph.kind")
    if kind == "edge-list":
        return graphs.read_edge_list(cfg.get_str("graph.path"), cfg.get_int("graph.n"))
    if kind == "erdos-renyi":
        return graphs.erdos_renyi_graph(
            cfg.get_int("graph.n"), cfg.get_float("graph.p"),
            seed_int(cfg.seed, "graph"),
        )
    if kind in graphs.GENERATORS:
        return graphs.GENERATORS[kind](cfg.get_int("graph.n"))
    raise ConfigError(f"unknown graph.kind {kind!r}")


def _sample_space(cfg: ExperimentConfig) -> tuple:
    """(feature dim, B_X, B_Y), shared by the sampler, the objective and the SRM family."""
    return (cfg.get_int("sampler.dim", 3), cfg.get_float("sampler.bx", 1.0),
            cfg.get_float("sampler.by", 1.0))


def build_sampler(cfg: ExperimentConfig, rf: graphs.ReceptiveFieldMap):
    kind = cfg.get_str("sampler.kind", "iid")
    dim, b_x, b_y = _sample_space(cfg)
    if kind == "iid":
        return sampling.IidSampler(
            rf=rf, dim=dim, b_x=b_x, b_y=b_y,
            label_noise=cfg.get_float("sampler.label_noise", 0.0),
        )
    if kind != "ising":
        raise ConfigError(f"unknown sampler.kind {kind!r}")
    spec = sampling.IsingSpec(
        # J = c on the off-diagonal field pairs; a product, so every other entry is c * 0.0
        coupling=cfg.get_float("sampler.coupling", 0.2) * (rf.mask & ~np.eye(rf.n, dtype=bool)),
        external_field=np.full(rf.n, cfg.get_float("sampler.field", 0.0)),
        rf=rf, feature_dim=dim, b_x=b_x, b_y=b_y,
        label_rule=cfg.get_str("sampler.rule", "field-mean"),
    )
    return sampling.IsingSampler(spec=spec, sweeps=cfg.get_int("sampler.sweeps", 1000))


def build_objective(cfg: ExperimentConfig):
    kind = cfg.get_str("objective", "quadratic")
    dim, b_x, b_y = _sample_space(cfg)
    radius = cfg.get_float("objective.weight_radius", 1.0)
    lam = cfg.get_float("objective.smoothness", 1.0)
    if kind == "quadratic":
        family = QuadraticFieldObjective
        args = (dim, lam, cfg.get_float("objective.strong_convexity", 0.5), b_x, b_y, radius)
    elif kind == "ripple":
        freq = cfg.get_float("objective.frequency", 4.0)
        amp = (cfg.get_float("objective.ripple_amplitude")
               if cfg.has("objective.ripple_amplitude") else None)
        family, args = RippleFieldObjective, (dim, lam, b_x, b_y, amp, radius, freq)
    else:
        raise ConfigError(f"unknown objective {kind!r}")
    try:
        return family(*args)
    except ValueError as exc:
        # a constant derived from finite parameters left float range: it is
        # no key of the config, so name the objective keys the config set
        if not str(exc).startswith(("certificate constant", "ripple_amplitude")):
            raise
        keys = sorted(key for key in cfg.raw if key.startswith("objective."))
        raise ConfigError(f"keys {keys}: {exc}") from exc


def build_sgd_config(cfg: ExperimentConfig) -> SgdConfig:
    return SgdConfig(
        step_size=cfg.get_float("sgd.step_size", 0.1),
        steps=cfg.get_int("sgd.steps", 100),
        seed=seed_int(cfg.seed, "sgd"),
    )


def _get_count(cfg: ExperimentConfig, key: str, default: int) -> int:
    """A config count: an integer of at least 1."""
    value = cfg.get_int(key, default)
    if value < 1:
        raise ConfigError(f"key {key!r}: expected a count >= 1, got {value}")
    return value


def build_bound_params(sgd_cfg: SgdConfig, obj, rf) -> bnd.SgdBoundParams:
    return bnd.SgdBoundParams(
        certificate=obj.certificate, step_size=sgd_cfg.step_size, steps=sgd_cfg.steps,
        n_vertices=rf.n, field_sizes=rf.sizes, regime=obj.regime,
    )


# ---------------------------------------------------------------------------
# Experiments: each reads all of its keys, then calls cfg.reject_unread(),
# and only then samples, trains or writes


def run_sample(cfg: ExperimentConfig, outdir: Path, chash: str) -> None:
    rf = graphs.one_hop_receptive_fields(build_graph(cfg))
    sampler = build_sampler(cfg, rf)
    indices = None
    if cfg.has("sample.replace"):
        indices = cfg.get_ints("sample.replace")
        # each sampler's replace has its own default mode
        mode = ({"mode": cfg.get_str("sample.replace_mode")}
                if cfg.has("sample.replace_mode") else {})
    cfg.reject_unread()
    z = sampler.sample(seed_int(cfg.seed, "sampler"))
    if indices is not None:
        z = sampler.replace(z, indices, seed_int(cfg.seed, "replace"), **mode)
    header = ["vertex"] + [f"x{k}" for k in range(z.dim)] + ["label", "perturbed"]
    rows = [
        [i, *z.features[i].tolist(), z.labels[i], i in z.perturbed]
        for i in range(z.n)
    ]
    write_csv(outdir / "samples.csv", header, rows, chash)


TRAJECTORY_HEADER = ["t", "sampled_vertex", "w_norm", "delta_norm", "case"]


def _write_trajectory(outdir: Path, chash: str, traj, trace=None) -> None:
    """trajectory.csv: per iterate t the sampled vertex and ||w_t||; the
    coupled trace of a perturbed run adds ||delta w_t|| and the case of step t."""
    blank = [""] * len(traj.weights)
    deltas = blank if trace is None else trace.delta_norms.tolist()
    cases = blank if trace is None else ["", *trace.case_labels]
    norms = row_norms(traj.weights).tolist()
    rows = [[t, traj.indices[t - 1] if t else "", norm, d, c]
            for t, (norm, d, c) in enumerate(zip(norms, deltas, cases))]
    write_csv(outdir / "trajectory.csv", TRAJECTORY_HEADER, rows, chash)


def run_train(cfg: ExperimentConfig, outdir: Path, chash: str) -> None:
    rf = graphs.one_hop_receptive_fields(build_graph(cfg))
    sampler = build_sampler(cfg, rf)
    obj = build_objective(cfg)
    sgd_cfg = build_sgd_config(cfg)

    if not cfg.has("train.perturb_vertex"):
        cfg.reject_unread()
        z = sampler.sample(seed_int(cfg.seed, "sampler"))
        _write_trajectory(outdir, chash, train([obj.bind(z, rf)], sgd_cfg))
        return

    vertex = cfg.get_int("train.perturb_vertex")
    if not 0 <= vertex < rf.n:
        raise ConfigError(f"key 'train.perturb_vertex': expected 0 <= vertex < {rf.n}, got {vertex}")
    runs = _get_count(cfg, "train.runs", 1)
    terms = bnd.bound_terms(build_bound_params(sgd_cfg, obj, rf))
    cfg.reject_unread()
    growth, kick = float(terms.growth[vertex]), float(terms.kick[vertex])
    envelope = [kick * bnd.geometric_series(growth, t) for t in range(sgd_cfg.steps + 1)]
    if not np.all(np.isfinite(envelope)):
        raise bnd.BoundDomainError(f"the expected envelope leaves float range at sgd.steps = "
                                   f"{sgd_cfg.steps}; lower sgd.steps or sgd.step_size")
    sum_delta = np.zeros(sgd_cfg.steps + 1)
    verdicts = []  # (ok, smallest margin) of every run's envelope check
    for r in range(runs):
        run_cfg = SgdConfig(step_size=sgd_cfg.step_size, steps=sgd_cfg.steps,
                            seed=seed_int(cfg.seed, "sgd", r))
        z = sampler.sample(seed_int(cfg.seed, "sampler", r))
        z_i = sampler.replace(z, [vertex], seed_int(cfg.seed, "replace", r))
        trace = coupled_train(z, z_i, rf, obj, run_cfg)
        sum_delta += trace.delta_norms
        report = envelope_check(trace, obj)
        verdicts.append((report.ok, report.margins.min(initial=np.inf)))
        if r == 0:  # train.runs is at least 1
            first = trace
    _write_trajectory(outdir, chash, first.base, first)
    stats = [[t, float(sum_delta[t] / runs), envelope[t]] for t in range(sgd_cfg.steps + 1)]
    write_csv(outdir / "delta_stats.csv",
              ["t", "mean_delta", "expected_envelope"], stats, chash)
    oks, margins = zip(*verdicts)
    write_json(outdir / "envelope.json", {
        "regime": report.regime,
        "applicable": terms.applicable,
        "min_margin": float(min(margins)) if sgd_cfg.steps else 0.0,
        "ok": all(oks),
    }, chash)


def run_stability(cfg: ExperimentConfig, outdir: Path, chash: str) -> None:
    rf = graphs.one_hop_receptive_fields(build_graph(cfg))
    sampler = build_sampler(cfg, rf)
    obj = build_objective(cfg)
    alg = SgdAlgorithm(obj, rf, build_sgd_config(cfg))
    k = cfg.get_int("harness.pert_draws", 4)
    kp = cfg.get_int("harness.test_draws", 4)
    m = _get_count(cfg, "harness.m", 1) if cfg.has("harness.m") else None
    cfg.reject_unread()
    seed = seed_int(cfg.seed, "harness")
    est = estimate_stability(alg, sampler, k, kp, seed)
    mu = None if m is None else estimate_mu(alg, sampler, m, k, kp, seed)
    rows = [[i, est.beta1_i[i], est.beta2_i[i], k, kp, seed] for i in range(rf.n)]
    write_csv(outdir / "stability.csv",
              ["i", "beta1_i", "beta2_i", "pert_draws", "test_draws", "seed"], rows, chash)
    write_json(outdir / "summary.json", {
        "algorithm": alg.id,
        "beta1": est.beta1, "beta2": est.beta2,
        "discrepancy": est.discrepancy, "mu": mu,
        "constants": {"objective": obj.kind, **dataclasses.asdict(obj.certificate)},
    }, chash)


def run_gnn(cfg: ExperimentConfig, outdir: Path, chash: str) -> None:
    kind = cfg.get_str("gnn.kind", gnn_mod.LABEL_MODE)
    trials = _get_count(cfg, "gnn.trials", 4)
    # the feature bump serves feature mode only; label mode leaves its key
    # unread, so a config that sets it is rejected
    feature = kind == gnn_mod.FEATURE_MODE
    eps = cfg.get_float("gnn.eps", 0.05) if feature else 0.0
    extra = {
        "ridge": cfg.get_float("gnn.ridge", 1.0),
        "dim": _get_count(cfg, "gnn.dim", 3),
        "b_w": cfg.get_float("gnn.bw", 1.0),
    }
    header = ["n", "sup_d", "inf_d", "kind", "beta1", "beta2",
              "discrepancy", "trials", "seed"]

    def row(res):
        return [len(res.beta2_i), res.sup_d, res.inf_d, kind, res.beta1, res.beta2,
                res.discrepancy, trials, res.seed]

    def check_bw(n):
        try:
            gnn_mod.check_weight_bound(n, 1.0, extra["b_w"])
        except ValueError as exc:
            raise ConfigError(f"key 'gnn.bw': {exc}") from exc

    if cfg.has("gnn.densities"):
        densities = cfg.get_floats("gnn.densities")
        if not densities:
            raise ConfigError("key 'gnn.densities': expected at least one density")
        bad = [p for p in densities if not 0.0 <= p <= 1.0]  # NaN fails it too
        if bad:
            raise ConfigError(f"key 'gnn.densities': expected densities in [0, 1], got {bad}")
        replicates = _get_count(cfg, "gnn.replicates", 4)
        n = cfg.get_int("graph.n")
        # each point draws its own Erdos-Renyi mask at the swept density
        if cfg.get_str("graph.kind", "erdos-renyi") != "erdos-renyi":
            raise ConfigError("a gnn.densities sweep draws Erdos-Renyi masks; "
                              "graph.kind must be erdos-renyi")
        cfg.reject_unread()
        check_bw(n)
        results = [gnn_mod.sweep_point(p, di, rep, n=n, trials=trials, seed=cfg.seed,
                                       kind=kind, eps_feature=eps, **extra)
                   for di, p in enumerate(densities) for rep in range(replicates)]
        write_csv(outdir / "results.csv", header, [row(res) for res in results], chash)
    else:
        rf = graphs.one_hop_receptive_fields(build_graph(cfg))
        cfg.reject_unread()
        check_bw(rf.n)
        res = gnn_mod.gnn_stability_experiment(
            rf, kind, trials, eps, seed_int(cfg.seed, "gnn"), **extra)
        write_csv(outdir / "results.csv", header, [row(res)], chash)
        write_csv(outdir / "per_vertex.csv", ["i", "beta1_i", "beta2_i"],
                  [[i, res.beta1_i[i], res.beta2_i[i]] for i in range(rf.n)], chash)


def run_bounds(cfg: ExperimentConfig, outdir: Path, chash: str) -> None:
    rf = graphs.one_hop_receptive_fields(build_graph(cfg))
    obj = build_objective(cfg)
    params = build_bound_params(build_sgd_config(cfg), obj, rf)
    delta = cfg.get_float("delta", 0.1)
    cfg.reject_unread()
    write_json(outdir / "report.json", bnd.bound_report(params, delta), chash)


def run_compare(cfg: ExperimentConfig, outdir: Path, chash: str) -> None:
    """Empirical beta2 vs the expected and high-probability bounds."""
    rf = graphs.one_hop_receptive_fields(build_graph(cfg))
    sampler = build_sampler(cfg, rf)
    obj = build_objective(cfg)
    sgd_cfg = build_sgd_config(cfg)
    alg = SgdAlgorithm(obj, rf, sgd_cfg)
    params = build_bound_params(sgd_cfg, obj, rf)
    delta = cfg.get_float("delta", 0.1)
    k = cfg.get_int("harness.pert_draws", 2)
    kp = cfg.get_int("harness.test_draws", 2)
    cfg.reject_unread()
    report = bnd.bound_report(params, delta)  # rejects a bad delta before the estimate
    est = estimate_stability(alg, sampler, k, kp, seed_int(cfg.seed, "harness"))
    expected_all, highprob = report["expected_beta2"], report["highprob_beta2"]
    rows = [[i, est.beta2_i[i], v["expected_beta2"], highprob,
             v["expected_beta2"] is not None and est.beta2_i[i] <= v["expected_beta2"]]
            for i, v in enumerate(report["per_vertex"])]
    write_csv(outdir / "compare.csv",
              ["i", "beta2_empirical", "expected_bound", "highprob_bound",
               "dominated"], rows, chash)
    write_json(outdir / "summary.json", {
        "beta2_empirical": est.beta2,
        "expected_bound": expected_all,
        "highprob_bound": highprob,
        "delta": delta,
        "dominated": expected_all is not None and est.beta2 <= expected_all,
        "constants": {"objective": obj.kind, **dataclasses.asdict(obj.certificate)},
    }, chash)


def run_srm(cfg: ExperimentConfig, outdir: Path, chash: str) -> None:
    rf = graphs.one_hop_receptive_fields(build_graph(cfg))
    sampler = build_sampler(cfg, rf)
    dim, b_x, b_y = _sample_space(cfg)
    d_max = cfg.get_int("srm.d_max", 3)
    holdout_sets = _get_count(cfg, "srm.holdout", 4)
    family = srm.DegreeClassFamily(
        rf=rf, d_max=d_max, dim=dim, b_x=b_x, b_y=b_y,
        weight_radius=cfg.get_float("srm.weight_radius", 1.0),
    )
    k = cfg.get_int("srm.beta_pert_draws", 2)
    kp = cfg.get_int("srm.beta_test_draws", 2)
    lambdas = cfg.get_floats("srm.lambdas", "0.0 0.1 1.0")
    if not lambdas:
        raise ConfigError("key 'srm.lambdas': expected at least one slack")
    bad = [lam for lam in lambdas if not (np.isfinite(lam) and lam >= 0)]
    if bad:
        raise ConfigError(f"key 'srm.lambdas': expected finite slacks >= 0, got {bad}")
    eps = cfg.get_float("srm.epsilon") if cfg.has("srm.epsilon") else None
    if eps is not None and not np.isfinite(eps):
        raise ConfigError(f"key 'srm.epsilon': expected a finite value, got {eps}")
    cfg.reject_unread()
    try:
        beta2_by_degree = {}
        for d in range(1, d_max + 1):
            est = estimate_stability(srm.SrmClassAlgorithm(family, d), sampler, k, kp,
                                     seed_int(cfg.seed, "srm-beta", d))
            beta2_by_degree[d] = est.beta2
        z = sampler.sample(seed_int(cfg.seed, "srm-train"))
        selections = [srm.select_sparse(family, z, lam, beta2_by_degree) for lam in lambdas]
    except ValueError as exc:
        # the feature bound sets the design's scale: a design whose squared
        # singular values leave float range has no fit to select from
        if not str(exc).startswith("design"):
            raise
        raise ConfigError(f"key 'sampler.bx': {exc}") from exc
    rows = [[sel.lambda_slack, fit.degree, fit.empirical_risk, fit.penalty,
             fit.penalized_risk, fit.degree == sel.selected.degree]
            for sel in selections for fit in sel.fits]
    holdout = [sampler.sample(seed_int(cfg.seed, "srm-holdout", h))
               for h in range(holdout_sets)]
    # summary.json checks the guarantee at the last slack of srm.lambdas; an
    # epsilon below the guarantee floor raises here, before any file is written
    record = srm.srm_report(selections[-1], family, holdout, eps, beta1=0.0, n_vertices=rf.n)
    write_csv(outdir / "srm.csv",
              ["lambda", "d", "class_risk", "penalty", "penalized_risk", "selected"],
              rows, chash)
    write_json(outdir / "summary.json", {
        "beta2_by_degree": beta2_by_degree,
        "selected_degree": record.selected_degree,
        "holdout_risk_selected": record.holdout_risk_selected,
        "oracle_rhs": record.oracle_rhs,
        "epsilon": record.epsilon,
        "failure_probability": record.failure_probability,
        "satisfied": record.satisfied,
    }, chash)


def run_concentration(cfg: ExperimentConfig, outdir: Path, chash: str) -> None:
    """Empirical tail of a per-coordinate-Lipschitz statistic vs the theory curve.

    The statistic is the number of up spins (sensitivity c_i = 1 per
    coordinate); its mean is computed exactly from the enumerated Gibbs
    measure and the tail bound uses the exact Dobrushin coefficient, the
    max row sum of the influence matrix. Its largest single entry is
    recorded beside it as a diagnostic.
    """
    rf = graphs.one_hop_receptive_fields(build_graph(cfg))
    sampler = build_sampler(cfg, rf)
    if not isinstance(sampler, sampling.IsingSampler):
        raise ConfigError("concentration experiment needs sampler.kind = ising")
    draws = _get_count(cfg, "conc.draws", 20000)
    t_grid = cfg.get_floats("conc.t_grid", "0.5 1 1.5 2 2.5 3")
    if not t_grid:
        raise ConfigError("key 'conc.t_grid': expected at least one threshold")
    bad = [t for t in t_grid if not (np.isfinite(t) and t >= 0)]
    if bad:
        raise ConfigError(f"key 'conc.t_grid': expected finite thresholds >= 0, got {bad}")
    cfg.reject_unread()
    spec = sampler.spec
    alpha = sampling.dobrushin_exact(spec)
    # the theory column draws nothing, and alpha >= 1 raises before any chain runs
    theory = [bnd.concentration_tail(np.ones(spec.n), alpha, t) for t in t_grid]
    configs = sampling.enumerate_spin_configs(spec.n)
    probs = sampling.gibbs_probabilities(spec)
    phi_exact = float(probs @ (configs > 0).sum(axis=1))
    spins = sampler.sample_spins_batch(draws, seed_int(cfg.seed, "conc"))
    phi = (spins > 0).sum(axis=1)
    rows = []
    for t, bound in zip(t_grid, theory):
        emp = float(np.mean(phi - phi_exact >= t))
        rows.append([t, emp, bound, emp <= bound])
    write_csv(outdir / "tail.csv",
              ["t", "empirical_exceedance", "theory_bound", "within_bound"],
              rows, chash)
    write_json(outdir / "summary.json", {
        "alpha_exact": alpha,
        "alpha_pairwise": float(spec.influence.max()),
        "alpha_upper_bound": sampling.dobrushin_upper_bound(spec),
        "phi_mean_exact": phi_exact,
        "draws": draws,
    }, chash)


RUNNERS = {
    "sample": run_sample,
    "train": run_train,
    "stability": run_stability,
    "gnn": run_gnn,
    "bounds": run_bounds,
    "compare": run_compare,
    "srm": run_srm,
    "concentration": run_concentration,
}


# ---------------------------------------------------------------------------
# Plot data


def emit_plot_data(result_dir: Path, kind: str) -> Path:
    """Reshape result files into tidy plot-series CSVs."""
    result_dir = Path(result_dir)
    if kind == "scaling":
        header, rows = read_csv(result_dir / "results.csv")
        sup_i, b2_i = header.index("sup_d"), header.index("beta2")
        out_rows = [
            [r[sup_i], r[b2_i], float(np.log(float(r[sup_i]))), float(np.log(float(r[b2_i])))]
            for r in rows if float(r[b2_i]) > 0
        ]
        out = result_dir / "plot_scaling.csv"
        write_csv(out, ["sup_d", "beta2", "log_sup_d", "log_beta2"], out_rows)
        return out
    if kind == "envelope":
        header, rows = read_csv(result_dir / "delta_stats.csv")
        out = result_dir / "plot_envelope.csv"
        write_csv(out, header, rows)
        return out
    if kind == "tail":
        header, rows = read_csv(result_dir / "tail.csv")
        out = result_dir / "plot_tail.csv"
        write_csv(out, ["t", "empirical_exceedance", "theory_bound"],
                  [r[:3] for r in rows])
        return out
    if kind == "discrepancy":
        out_rows = []
        for path in sorted(result_dir.glob("**/results.csv")):
            header, rows = read_csv(path)
            n_i = header.index("n")
            kind_i = header.index("kind")
            disc_i = header.index("discrepancy")
            for r in rows:
                out_rows.append([r[n_i], r[kind_i], r[disc_i]])
        out = result_dir / "plot_discrepancy.csv"
        write_csv(out, ["n", "kind", "discrepancy"], out_rows)
        return out
    raise ConfigError(f"unknown plot kind {kind!r}")


# ---------------------------------------------------------------------------
# Entrypoint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="grlstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", type=Path)
    p_plots = sub.add_parser("plots", help="emit plot-data CSVs from a result dir")
    p_plots.add_argument("dir", type=Path)
    p_plots.add_argument("kind", choices=["scaling", "envelope", "tail", "discrepancy"])
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            started = time.time()
            raw = load_config(args.config)
            cfg = ExperimentConfig(raw)
            if cfg.kind not in RUNNERS:
                raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
            outdir = Path(cfg.get_str("out"))
            RUNNERS[cfg.kind](cfg, outdir, config_hash(raw))
            write_manifest(outdir, raw, started)
        else:
            emit_plot_data(args.dir, args.kind)
        return 0
    except (ConfigError, sampling.CapacityError, FileNotFoundError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except Exception as exc:
        json.dump({"error": "internal", "type": type(exc).__name__,
                   "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
