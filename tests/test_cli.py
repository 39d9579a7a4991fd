import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grlstab import cli, gnn, graphs, sampling
from grlstab.config import ConfigError, ExperimentConfig, parse_config
from grlstab.reporting import read_csv
from grlstab.seeding import seed_int
from grlstab.sgd import SgdConfig, coupled_train, envelope_check


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(args):
    return cli.main([str(a) for a in args])


BASE_STABILITY = """
experiment = stability
seed = 11
out = {out}
graph.kind = cycle
graph.n = 6
sampler.kind = iid
sampler.dim = 3
objective = quadratic
objective.smoothness = 1.0
objective.strong_convexity = 0.5
sgd.step_size = 0.1
sgd.steps = 25
harness.pert_draws = 2
harness.test_draws = 2
"""


def test_config_parser_basics():
    cfg = parse_config("a = 1\n# comment\nb.c = 2.5  # trailing\n")
    assert cfg == {"a": "1", "b.c": "2.5"}
    with pytest.raises(ConfigError):
        parse_config("novalue\n")
    with pytest.raises(ConfigError):
        parse_config("a = 1\na = 2\n")


def test_missing_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig({"experiment": "sample"})


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, "bad.ini",
                        BASE_STABILITY.format(out=tmp_path / "o") + "bogus.key = 1\n")
    assert run_cli(["run", path]) == 1


def test_missing_config_file_is_user_error(tmp_path):
    assert run_cli(["run", tmp_path / "nope.ini"]) == 1


def test_stability_experiment_outputs(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "c.ini", BASE_STABILITY.format(out=out))
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "stability.csv")
    assert header == ["i", "beta1_i", "beta2_i", "pert_draws", "test_draws", "seed"]
    assert len(rows) == 6
    summary = json.loads((out / "summary.json").read_text())
    assert summary["beta1"] <= summary["beta2"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == "11"
    assert "wall_time_s" in manifest


def test_rerun_byte_identical_results(tmp_path):
    out = tmp_path / "r"
    path = write_config(tmp_path, "c1.ini", BASE_STABILITY.format(out=out))
    assert run_cli(["run", path]) == 0
    first = (out / "stability.csv").read_bytes()
    first_summary = (out / "summary.json").read_bytes()
    assert run_cli(["run", path]) == 0
    # result files byte-identical (wall time lives only in the manifest)
    assert (out / "stability.csv").read_bytes() == first
    assert (out / "summary.json").read_bytes() == first_summary


def test_sample_experiment_with_replacement(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "s.ini", f"""
experiment = sample
seed = 3
out = {out}
graph.kind = path
graph.n = 5
sampler.kind = ising
sampler.coupling = 0.2
sampler.sweeps = 50
sample.replace = 1 3
""")
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "samples.csv")
    assert header[0] == "vertex" and header[-1] == "perturbed"
    flags = [r[-1] for r in rows]
    assert flags == ["false", "true", "false", "true", "false"]


def test_train_coupled_and_envelope_plotdata(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "t.ini", f"""
experiment = train
seed = 5
out = {out}
graph.kind = cycle
graph.n = 8
sampler.kind = iid
objective = quadratic
objective.weight_radius = 0.15
sgd.step_size = 0.1
sgd.steps = 30
train.perturb_vertex = 2
train.runs = 3
""")
    assert run_cli(["run", path]) == 0
    env = json.loads((out / "envelope.json").read_text())
    assert env["ok"] is True
    header, rows = read_csv(out / "delta_stats.csv")
    assert header == ["t", "mean_delta", "expected_envelope"]
    assert run_cli(["plots", out, "envelope"]) == 0
    assert (out / "plot_envelope.csv").exists()


def test_train_envelope_verdict_covers_every_run(tmp_path):
    # at seed 5 the first run's smallest margin is positive and a later
    # run's is 0, so a verdict read from the first run alone shows
    out = tmp_path / "out"
    path = write_config(tmp_path, "t.ini", f"""
experiment = train
seed = 5
out = {out}
graph.kind = cycle
graph.n = 8
sampler.kind = iid
sgd.steps = 30
train.perturb_vertex = 2
train.runs = 3
""")
    assert run_cli(["run", path]) == 0
    cfg = ExperimentConfig(parse_config(path.read_text()))
    rf = graphs.one_hop_receptive_fields(cli.build_graph(cfg))
    sampler, obj = cli.build_sampler(cfg, rf), cli.build_objective(cfg)
    reports = []
    for r in range(3):
        z = sampler.sample(seed_int(5, "sampler", r))
        z_i = sampler.replace(z, [2], seed_int(5, "replace", r))
        run_cfg = SgdConfig(step_size=0.1, steps=30, seed=seed_int(5, "sgd", r))
        reports.append(envelope_check(coupled_train(z, z_i, rf, obj, run_cfg), obj))
    mins = [float(report.margins.min()) for report in reports]
    assert min(mins) < mins[0]
    env = json.loads((out / "envelope.json").read_text())
    assert env["min_margin"] == min(mins)
    assert env["ok"] is all(report.ok for report in reports)


@pytest.mark.parametrize("seed", range(1, 7))
def test_coupled_train_on_ising_data(tmp_path, seed):
    # the fresh-conditional replacement often redraws the same spin: an
    # unchanged set is a valid draw of Z^i with zero deviations
    out = tmp_path / "out"
    path = write_config(tmp_path, "ti.ini", f"""
experiment = train
seed = {seed}
out = {out}
graph.kind = cycle
graph.n = 6
sampler.kind = ising
sampler.sweeps = 50
sgd.steps = 20
train.perturb_vertex = 1
train.runs = 3
""")
    assert run_cli(["run", path]) == 0
    assert json.loads((out / "envelope.json").read_text())["ok"] is True
    assert (out / "delta_stats.csv").exists()


def test_plain_train_accepts_zero_step_size(tmp_path):
    # only the coupled branch evaluates the bounds, which need a step > 0
    out = tmp_path / "out"
    path = write_config(tmp_path, "t0.ini", f"""
experiment = train
seed = 5
out = {out}
graph.kind = cycle
graph.n = 6
sgd.step_size = 0
sgd.steps = 10
""")
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 11 and all(float(r[2]) == 0.0 for r in rows)


@pytest.mark.parametrize("radius, step_size", [(1.0, 1e160), (1e-200, 1e-180)])
def test_train_trajectory_norms_where_w_dot_w_leaves_the_normal_range(tmp_path, radius,
                                                                      step_size):
    # every step leaves the ball and is projected back onto it; w.w of these
    # iterates overflows (step 1e160) or underflows (radius 1e-200), and the
    # w_norm column used to read 0.0 on every row
    out = tmp_path / "out"
    path = write_config(tmp_path, "t.ini", f"""
experiment = train
seed = 1
out = {out}
graph.kind = cycle
graph.n = 6
sgd.steps = 4
sgd.step_size = {step_size}
objective.weight_radius = {radius}
""")
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "trajectory.csv")
    norms = [float(r[2]) for r in rows[1:]]
    assert len(norms) == 4
    assert all(abs(norm - radius) <= 1e-12 * radius for norm in norms), norms


def test_bounds_experiment_report(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "b.ini", f"""
experiment = bounds
seed = 2
out = {out}
graph.kind = cycle
graph.n = 10
objective = quadratic
objective.smoothness = 1.0
objective.strong_convexity = 0.5
sgd.step_size = 0.1
sgd.steps = 50
delta = 0.1
""")
    assert run_cli(["run", path]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["regime"] == "strongly-convex"
    assert report["expected_beta2"] > 0
    assert all(c["ok"] for c in report["conditions"].values())


def test_bounds_experiment_small_t_not_applicable(tmp_path):
    # growth 1 + 0.9 * 0.05 = 1.045: the loose second moment is negative at T = 10
    out = tmp_path / "out"
    path = write_config(tmp_path, "small_t.ini", f"""
experiment = bounds
seed = 2
out = {out}
graph.kind = cycle
graph.n = 10
objective = ripple
sgd.step_size = 0.05
sgd.steps = 10
""")
    assert run_cli(["run", path]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["regime"] == "non-convex"
    assert report["conditions"] == {}
    assert report["per_vertex"][0]["growth"] == pytest.approx(1.045, rel=1e-12)
    assert report["variance_sum_loose"] < 0
    assert report["expected_beta2"] > 0
    assert report["highprob_beta2"] is None
    assert report["generalization_surplus"] is None


RIPPLE_CYCLE8 = """
seed = 2
out = {out}
graph.kind = cycle
graph.n = 8
objective = ripple
sgd.step_size = 0.05
"""


@pytest.mark.parametrize("body", [
    "experiment = bounds\nsgd.steps = 8500\n",
    "experiment = bounds\nsgd.steps = 8250\n",
    "experiment = compare\nsampler.kind = iid\nsgd.steps = 8500\n",
])
def test_bound_report_past_float_range_is_user_error(tmp_path, capsys, monkeypatch, body):
    # 8500 steps used to exit 2 with an OverflowError, and 8250 to write
    # Infinity into report.json; compare stops before its estimate
    def never(*args, **kwargs):
        raise AssertionError("estimated before the bound report was checked")

    monkeypatch.setattr(cli, "estimate_stability", never)
    out = tmp_path / "out"
    path = write_config(tmp_path, "overflow.ini", RIPPLE_CYCLE8.format(out=out) + body)
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BoundDomainError" and "sgd.steps" in err["message"]
    assert not out.exists()


def test_ripple_train_runs_while_its_own_envelope_is_finite(tmp_path, capsys, monkeypatch):
    # the report's squared second moment leaves float range at 8500 steps, but
    # the train files do not read it; its envelope column leaves it at 16503
    out = tmp_path / "out"
    body = "experiment = train\nsampler.kind = iid\ntrain.perturb_vertex = 1\n"
    path = write_config(tmp_path, "t.ini", RIPPLE_CYCLE8.format(out=out) + body
                        + "sgd.steps = 8500\n")
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "delta_stats.csv")
    assert len(rows) == 8501 and all(np.isfinite(float(r[2])) for r in rows)

    def never(*args, **kwargs):
        raise AssertionError("trained before the envelope was checked")

    monkeypatch.setattr(cli, "coupled_train", never)
    out = tmp_path / "long"
    path = write_config(tmp_path, "long.ini", RIPPLE_CYCLE8.format(out=out) + body
                        + "sgd.steps = 16503\n")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BoundDomainError" and "sgd.steps = 16503" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("vertex", [-1, 8])
def test_train_perturb_vertex_out_of_range_is_user_error(tmp_path, capsys, vertex):
    out = tmp_path / "out"
    path = write_config(tmp_path, "t.ini", RIPPLE_CYCLE8.format(out=out)
                        + f"experiment = train\ntrain.perturb_vertex = {vertex}\n")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "train.perturb_vertex" in err["message"]
    assert not out.exists()


def test_coupled_ripple_train_mean_delta_within_expected_envelope(tmp_path):
    # the expected envelope kick * geom(growth, t) bounds the mean deviation
    # over coupled runs at every step
    out = tmp_path / "out"
    path = write_config(tmp_path, "ripple_train.ini", f"""
experiment = train
seed = 3
out = {out}
graph.kind = cycle
graph.n = 16
sampler.kind = iid
objective = ripple
sgd.step_size = 0.05
sgd.steps = 200
train.perturb_vertex = 3
train.runs = 100
""")
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "delta_stats.csv")
    assert len(rows) == 201
    assert all(float(mean) <= float(envelope) for _, mean, envelope in rows)
    assert json.loads((out / "envelope.json").read_text())["ok"] is True


def test_compare_experiment_domination(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "cmp.ini", f"""
experiment = compare
seed = 6
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
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "compare.csv")
    assert header == ["i", "beta2_empirical", "expected_bound", "highprob_bound", "dominated"]
    assert len(rows) == 16
    assert all(r[-1] == "true" for r in rows)


def test_gnn_sweep_and_scaling_plot(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "g.ini", f"""
experiment = gnn
seed = 9
out = {out}
graph.kind = erdos-renyi
graph.n = 16
gnn.kind = label
gnn.trials = 2
gnn.densities = 0.1 0.3 0.6
gnn.replicates = 2
""")
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "results.csv")
    assert len(rows) == 6
    assert run_cli(["plots", out, "scaling"]) == 0
    h2, r2 = read_csv(out / "plot_scaling.csv")
    assert h2 == ["sup_d", "beta2", "log_sup_d", "log_beta2"]
    assert run_cli(["plots", out, "discrepancy"]) == 0


def test_gnn_sweep_rows_equal_library_scaling_sweep(tmp_path):
    out = tmp_path / "s"
    path = write_config(tmp_path, "gs.ini", f"""
experiment = gnn
seed = 9
out = {out}
graph.kind = erdos-renyi
graph.n = 12
gnn.kind = label
gnn.trials = 1
gnn.densities = 0.2 0.5
gnn.replicates = 2
""")
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "results.csv")
    results = [gnn.sweep_point(p, di, rep, n=12, trials=1, seed=9, kind="label")
               for di, p in enumerate([0.2, 0.5]) for rep in range(2)]
    sup_i, b2_i = header.index("sup_d"), header.index("beta2")
    assert [(float(r[sup_i]), float(r[b2_i])) for r in rows] \
        == [(res.sup_d, res.beta2) for res in results]


def test_gnn_single_graph_files_equal_library_experiment(tmp_path):
    out = tmp_path / "g1"
    path = write_config(tmp_path, "g1.ini", f"""
experiment = gnn
seed = 7
out = {out}
graph.kind = cycle
graph.n = 8
gnn.kind = feature-first-order
gnn.trials = 2
gnn.eps = 0.04
""")
    assert run_cli(["run", path]) == 0
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(8))
    res = gnn.gnn_stability_experiment(rf, "feature-first-order", 2, 0.04,
                                       seed_int(7, "gnn"))
    header, rows = read_csv(out / "results.csv")
    assert header == ["n", "sup_d", "inf_d", "kind", "beta1", "beta2",
                      "discrepancy", "trials", "seed"]
    assert rows == [["8", repr(res.sup_d), repr(res.inf_d), "feature-first-order",
                     repr(res.beta1), repr(res.beta2), repr(res.discrepancy), "2",
                     str(res.seed)]]
    header, rows = read_csv(out / "per_vertex.csv")
    assert header == ["i", "beta1_i", "beta2_i"]
    assert rows == [[str(i), repr(float(res.beta1_i[i])), repr(float(res.beta2_i[i]))]
                    for i in range(8)]
    assert res.beta2 > res.beta1 > 0.0


def test_concentration_experiment(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "conc.ini", f"""
experiment = concentration
seed = 4
out = {out}
graph.kind = cycle
graph.n = 5
sampler.kind = ising
sampler.coupling = 0.15
sampler.sweeps = 60
conc.draws = 4000
conc.t_grid = 0.5 1.5 2.5
""")
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "tail.csv")
    assert header == ["t", "empirical_exceedance", "theory_bound", "within_bound"]
    assert all(r[-1] == "true" for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert 0 <= summary["alpha_exact"] <= summary["alpha_upper_bound"] < 1
    assert 0 <= summary["alpha_pairwise"] <= summary["alpha_exact"]
    assert run_cli(["plots", out, "tail"]) == 0


def test_concentration_outside_dobrushin_domain_is_user_error(tmp_path, capsys, monkeypatch):
    # K12 at J = 0.2: the largest pairwise influence is 0.197 but the row
    # sum is 2.17, so no Dobrushin tail bound applies; the theory column
    # draws nothing, so this is known before any chain runs
    def never(*args, **kwargs):
        raise AssertionError("sampled before alpha was checked")

    monkeypatch.setattr(sampling.IsingSampler, "sample_spins_batch", never)
    out = tmp_path / "out"
    path = write_config(tmp_path, "k12.ini", f"""
experiment = concentration
seed = 4
out = {out}
graph.kind = complete
graph.n = 12
sampler.kind = ising
sampler.coupling = 0.2
conc.t_grid = 5
""")
    assert run_cli(["run", path]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "BoundDomainError"
    assert not out.exists()


def test_srm_experiment(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, "srm.ini", f"""
experiment = srm
seed = 8
out = {out}
graph.kind = cycle
graph.n = 8
sampler.kind = iid
srm.d_max = 2
srm.lambdas = 0.0 1.0
srm.beta_pert_draws = 1
srm.beta_test_draws = 1
""")
    assert run_cli(["run", path]) == 0
    header, rows = read_csv(out / "srm.csv")
    assert header == ["lambda", "d", "class_risk", "penalty", "penalized_risk", "selected"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["satisfied"] is True


@pytest.mark.parametrize("kind, extra", [
    ("stability", "harness.pert_draws = 1\nharness.test_draws = 1\nsgd.steps = 10\n"),
    ("srm", "srm.d_max = 2\nsrm.lambdas = 0.0 1.0\nsrm.holdout = 1\n"
            "srm.beta_pert_draws = 1\nsrm.beta_test_draws = 1\n"),
], ids=["stability", "srm"])
def test_ising_sampler_reads_sampler_dim(tmp_path, kind, extra):
    out = tmp_path / "out"
    path = write_config(tmp_path, "ising4.ini", f"""
experiment = {kind}
seed = 6
out = {out}
graph.kind = cycle
graph.n = 6
sampler.kind = ising
sampler.dim = 4
sampler.sweeps = 20
""" + extra)
    assert run_cli(["run", path]) == 0


@pytest.mark.parametrize("experiment, keys", [
    ("bounds", "objective = ripple\nobjective.strong_convexity = 0.5\n"),
    ("bounds", "objective = quadratic\nobjective.ripple_amplitude = 0.01\n"),
    ("bounds", "objective = quadratic\nobjective.frequency = 2.0\n"),
    ("bounds", "sampler.feature_dim = 4\n"),
    ("bounds", "objective.dim = 4\n"),
    ("sample", "sampler.kind = iid\nsampler.sweeps = 0\nsampler.coupling = 5\n"),
    ("sample", "sampler.kind = ising\nsampler.label_noise = 0.1\n"),
    ("stability", "sgd.steps = 5\nharness.trials = 3\n"),
    ("concentration", "sampler.kind = ising\nconc.sweeps = 0\n"),
    ("bounds", "sampler.kind = nosuch\nsampler.sweeps = 0\nsampler.label_noise = 3\n"),
    ("train", "train.runs = 7\n"),
    ("stability", "graph.p = 0.9\n"),
    ("gnn", "gnn.replicates = 3\n"),
    ("gnn", "gnn.densities = 0.2\n"),
    ("gnn", "gnn.kind = label\ngnn.eps = 0.04\n"),
], ids=["ripple-strong_convexity", "quadratic-ripple_amplitude", "quadratic-frequency",
        "sampler.feature_dim", "objective.dim", "iid-sweeps-coupling", "ising-label_noise",
        "harness.trials", "conc.sweeps", "bounds-sampler", "uncoupled-train.runs",
        "cycle-graph.p", "single-gnn-replicates", "sweep-on-cycle", "label-gnn.eps"])
def test_keys_the_run_does_not_read_rejected(tmp_path, experiment, keys, capsys):
    # keys of another objective or sampler family, keys of a branch the run
    # does not take, and keys no run reads exit 1 naming the key (the last
    # one set) before anything is written; a density sweep on a graph.kind
    # other than erdos-renyi is rejected the same way, and so are the feature
    # bump and test draws of a label-mode run
    out = tmp_path / "out"
    path = write_config(tmp_path, "keys.ini", f"""
experiment = {experiment}
seed = 2
out = {out}
graph.kind = cycle
graph.n = 6
""" + keys)
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert keys.splitlines()[-1].split(" = ")[0] in err["message"]
    assert not out.exists()


def test_capacity_error_is_user_error(tmp_path, capsys):
    # alpha is exact on cycle-14, but the exact mean of phi enumerates 2^14 configurations
    out = tmp_path / "out"
    path = write_config(tmp_path, "cap.ini", f"""
experiment = concentration
seed = 4
out = {out}
graph.kind = cycle
graph.n = 14
sampler.kind = ising
sampler.coupling = 0.1
sampler.sweeps = 50
conc.draws = 100
""")
    assert run_cli(["run", path]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "CapacityError"
    assert not out.exists()


@pytest.mark.parametrize("sweeps", [0, -3])
def test_non_positive_sweeps_is_user_error(tmp_path, capsys, sweeps):
    out = tmp_path / "out"
    path = write_config(tmp_path, "sweeps.ini", f"""
experiment = sample
seed = 3
out = {out}
graph.kind = cycle
graph.n = 6
sampler.kind = ising
sampler.sweeps = {sweeps}
""")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "sweeps must be >= 1" in err["message"]
    assert not (out / "samples.csv").exists()


COUNT_CONFIGS = {
    "train.runs": "experiment = train\nsgd.steps = 5\ntrain.perturb_vertex = 1\n",
    "conc.draws": "experiment = concentration\nsampler.kind = ising\nsampler.sweeps = 10\n",
    "srm.holdout": "experiment = srm\nsrm.d_max = 2\n",
    "gnn.trials": "experiment = gnn\n",
    "gnn.dim": "experiment = gnn\n",
    "gnn.replicates": "experiment = gnn\ngnn.densities = 0.2\n",
}


@pytest.mark.parametrize("value", [0, -2])
@pytest.mark.parametrize("key", sorted(COUNT_CONFIGS))
def test_count_below_one_is_user_error(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    path = write_config(tmp_path, "count.ini", f"""
seed = 5
out = {out}
graph.kind = cycle
graph.n = 6
{key} = {value}
""" + COUNT_CONFIGS[key])
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and key in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind", [gnn.LABEL_MODE, gnn.FEATURE_MODE])
@pytest.mark.parametrize("draws", [-3, -1, 0, 5])
def test_negative_gnn_test_draws_is_user_error(tmp_path, capsys, kind, draws):
    # neither mode draws test features (both take the exact sup over them),
    # so gnn.test_draws is unread and any value is rejected
    out = tmp_path / "out"
    path = write_config(tmp_path, "draws.ini", f"""
experiment = gnn
seed = 5
out = {out}
graph.kind = cycle
graph.n = 6
gnn.kind = {kind}
gnn.trials = 1
gnn.test_draws = {draws}
""")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "gnn.test_draws" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind, line, name", [
    (gnn.LABEL_MODE, "gnn.ridge = nan", "ridge"),
    (gnn.LABEL_MODE, "gnn.bw = nan", "b_w"),
    (gnn.LABEL_MODE, "gnn.bw = -0.5", "b_w"),
    (gnn.FEATURE_MODE, "gnn.eps = nan", "eps_feature"),
])
def test_out_of_range_gnn_parameter_is_user_error(tmp_path, capsys, kind, line, name):
    # a NaN ridge, weight bound or feature bump used to exit 0 with zero betas
    out = tmp_path / "out"
    path = write_config(tmp_path, "gnn.ini", f"""
experiment = gnn
seed = 5
out = {out}
graph.kind = cycle
graph.n = 6
gnn.kind = {kind}
gnn.trials = 1
{line}
""")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert f"{name} must be finite" in err["message"]
    assert not out.exists()


def test_empty_gnn_densities_is_user_error(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, "densities.ini", f"""
experiment = gnn
seed = 5
out = {out}
graph.n = 6
gnn.densities =
""")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "gnn.densities" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("densities", ["0.5 nan", "-0.1", "0.5 1.5"])
def test_gnn_density_outside_unit_interval_rejected_before_any_point(tmp_path, capsys,
                                                                    monkeypatch, densities):
    def never(*args, **kwargs):
        raise AssertionError("a sweep point ran before the densities were checked")

    monkeypatch.setattr(gnn, "sweep_point", never)
    out = tmp_path / "out"
    path = write_config(tmp_path, "densities.ini", f"""
experiment = gnn
seed = 5
out = {out}
graph.n = 6
gnn.densities = {densities}
""")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "gnn.densities" in err["message"]
    assert not out.exists()


def test_empty_srm_lambdas_is_user_error(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, "lambdas.ini", f"""
experiment = srm
seed = 5
out = {out}
graph.kind = cycle
graph.n = 6
srm.lambdas =
""")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "srm.lambdas" in err["message"]
    assert not out.exists()


SRM_CYCLE8 = """
experiment = srm
seed = 8
out = {out}
graph.kind = cycle
graph.n = 8
sampler.kind = iid
srm.d_max = 2
srm.beta_pert_draws = 1
srm.beta_test_draws = 1
"""


def test_srm_summary_checks_the_last_slack(tmp_path):
    records = {}
    for name, lambdas in [("both", "0.0 1.0"), ("last", "1.0")]:
        out = tmp_path / name
        path = write_config(tmp_path, f"{name}.ini", SRM_CYCLE8.format(out=out)
                            + f"srm.lambdas = {lambdas}\n")
        assert run_cli(["run", path]) == 0
        records[name] = json.loads((out / "summary.json").read_text())
        del records[name]["config_hash"]
    assert records["both"] == records["last"]


def test_srm_solves_a_tiny_weight_radius_and_rejects_one_whose_bound_overflows(
        tmp_path, capsys):
    # 1e-17 used to exit 2: the ridge bracket stopped at a multiplier of 1e16
    out = tmp_path / "tiny"
    path = write_config(tmp_path, "tiny.ini", SRM_CYCLE8.format(out=out)
                        + "srm.weight_radius = 1e-17\n")
    assert run_cli(["run", path]) == 0
    assert json.loads((out / "summary.json").read_text())["satisfied"] is True
    out = tmp_path / "overflow"
    path = write_config(tmp_path, "overflow.ini", SRM_CYCLE8.format(out=out)
                        + "srm.weight_radius = 1e-310\n")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "weight_radius 1e-310" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("body, error, message", [
    ("experiment = srm\nsrm.lambdas = nan\n", "ConfigError", "srm.lambdas"),
    ("experiment = srm\nsrm.lambdas = 0.1 inf\n", "ConfigError", "srm.lambdas"),
    ("experiment = srm\nsrm.lambdas = -1\n", "ConfigError", "srm.lambdas"),
    ("experiment = srm\nsrm.epsilon = nan\n", "ConfigError", "srm.epsilon"),
    ("experiment = srm\nsrm.epsilon = inf\n", "ConfigError", "srm.epsilon"),
    ("experiment = srm\nsrm.weight_radius = nan\n", "ValueError",
     "weight_radius must be finite"),
    ("experiment = compare\nsgd.steps = 10\ndelta = 2\n", "BoundDomainError",
     "delta must be in"),
    ("experiment = compare\nsgd.steps = 10\ndelta = 0\n", "BoundDomainError",
     "delta must be in"),
    ("experiment = compare\nsgd.steps = 10\ndelta = nan\n", "BoundDomainError",
     "delta must be in"),
    ("experiment = stability\nsgd.steps = 10\nharness.m = 0\n", "ConfigError", "harness.m"),
])
def test_bad_value_rejected_before_any_estimate(tmp_path, capsys, monkeypatch,
                                                body, error, message):
    # the srm NaN and infinite values used to exit 0, writing NaN or Infinity
    # into summary.json (invalid JSON); the others exited 1 only after the
    # stability estimates
    def never(*args, **kwargs):
        raise AssertionError("estimated before the config values were checked")

    monkeypatch.setattr(cli, "estimate_stability", never)
    monkeypatch.setattr(cli, "estimate_mu", never)
    out = tmp_path / "out"
    path = write_config(tmp_path, "value.ini", f"""
seed = 5
out = {out}
graph.kind = cycle
graph.n = 8
sampler.kind = iid
""" + body)
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and message in err["message"]
    assert not out.exists()


REJECTED_VALUES = {
    "bounds-step-nan": ("experiment = bounds\nsgd.step_size = nan\n",
                        "ValueError", "step size must be finite"),
    "bounds-step-inf": ("experiment = bounds\nsgd.step_size = inf\n",
                        "ValueError", "step size must be finite"),
    "stability-step-nan": ("experiment = stability\nsgd.step_size = nan\n",
                           "ValueError", "step size must be finite"),
    "conc-t-nan": ("experiment = concentration\nsampler.kind = ising\nsampler.sweeps = 5\n"
                   "conc.draws = 10\nconc.t_grid = nan\n",
                   "ConfigError", "conc.t_grid"),
    "conc-t-empty": ("experiment = concentration\nsampler.kind = ising\n"
                     "sampler.sweeps = 5\nconc.t_grid =\n",
                     "ConfigError", "conc.t_grid"),
    "sample-dim-0": ("experiment = sample\nsampler.dim = 0\n", "ValueError", "dim must be"),
    "sample-bx-nan": ("experiment = sample\nsampler.bx = nan\n", "ValueError", "b_x must be"),
    "sample-bx-negative": ("experiment = sample\nsampler.bx = -1\n",
                           "ValueError", "b_x must be"),
    "srm-eps-below-floor": ("experiment = srm\nsrm.epsilon = -5\n",
                            "SrmFloorError", "guarantee floor"),
    "sample-noise-nan": ("experiment = sample\nsampler.label_noise = nan\n",
                         "ValueError", "label_noise must be"),
    "ising-bx-nan": ("experiment = sample\nsampler.kind = ising\nsampler.bx = nan\n",
                     "ValueError", "b_x must be"),
    "ising-bx-inf": ("experiment = sample\nsampler.kind = ising\nsampler.bx = inf\n",
                     "ValueError", "b_x must be"),
    "ising-by-nan": ("experiment = sample\nsampler.kind = ising\nsampler.by = nan\n",
                     "ValueError", "b_y must be"),
    "ising-by-negative": ("experiment = sample\nsampler.kind = ising\nsampler.by = -1\n",
                          "ValueError", "b_y must be"),
    "ripple-frequency-zero": ("experiment = bounds\nobjective = ripple\nobjective.frequency = 0\n",
                              "ValueError", "ripple_frequency must be finite and > 0"),
    "ripple-frequency-negative": ("experiment = bounds\nobjective = ripple\n"
                                  "objective.frequency = -4\n",
                                  "ValueError", "ripple_frequency must be finite and > 0"),
    "weight-radius-nan": ("experiment = bounds\nobjective.weight_radius = nan\n",
                          "ValueError", "weight_radius must be finite and > 0"),
    "train-weight-radius-inf": ("experiment = train\nobjective.weight_radius = inf\n",
                                "ValueError", "weight_radius must be finite and > 0"),
    # finite parameters whose certificate constants leave float range: the
    # error names the objective keys the config set, then the constant
    "bounds-weight-radius-1e300": ("experiment = bounds\nobjective.weight_radius = 1e300\n",
                                   "ConfigError", "keys ['objective.weight_radius']: "
                                   "certificate constant gradient_data_lipschitz must be finite"),
    "ripple-frequency-1e-200": ("experiment = bounds\nobjective = ripple\n"
                                "objective.frequency = 1e-200\n",
                                "ConfigError", "keys ['objective.frequency']: "
                                "ripple_amplitude must be finite"),
    "bounds-smoothness-1e300": ("experiment = bounds\nobjective.smoothness = 1e300\n",
                                "ConfigError", "keys ['objective.smoothness']: "
                                "certificate constant gradient_data_lipschitz must be finite"),
    "stability-smoothness-1e300": ("experiment = stability\nobjective.smoothness = 1e300\n",
                                   "ConfigError", "keys ['objective.smoothness']: "
                                   "certificate constant gradient_data_lipschitz must be finite"),
    "train-smoothness-1e300": ("experiment = train\nobjective.smoothness = 1e300\n",
                               "ConfigError", "keys ['objective.smoothness']: "
                               "certificate constant gradient_data_lipschitz must be finite"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_VALUES))
@pytest.mark.filterwarnings("error")
def test_out_of_range_value_is_user_error(tmp_path, capsys, case):
    # each used to exit 0 with NaN results, exit 2, or exit 1 only through numpy;
    # a warning would be printed before the JSON error, so here it is an error
    body, error, message = REJECTED_VALUES[case]
    out = tmp_path / "out"
    path = write_config(tmp_path, "value.ini", f"""
seed = 5
out = {out}
graph.kind = cycle
graph.n = 6
""" + body)
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and message in err["message"]
    assert not out.exists()


GNN_CYCLE_8 = """
experiment = gnn
graph.kind = cycle
graph.n = 8
gnn.kind = feature-first-order
"""

SRM_IID_CYCLE_8 = """
experiment = srm
graph.kind = cycle
graph.n = 8
sampler.kind = iid
"""

# (config body, exit status, error type of an exit-1 case)
ENTRY_POINT_CASES = {
    "gnn-feature-cycle-8": (GNN_CYCLE_8 + "gnn.trials = 1\n", 0, None),
    # both GNN modes take the exact sup over test features, so no key sets test draws
    "gnn-test-draws": (GNN_CYCLE_8 + "gnn.test_draws = 5\n", 1, "ConfigError"),
    **{case: ("graph.kind = cycle\ngraph.n = 6\n" + REJECTED_VALUES[case][0], 1,
              REJECTED_VALUES[case][1])
       for case in ("bounds-step-nan", "ripple-frequency-zero", "ripple-frequency-negative",
                    "weight-radius-nan", "bounds-weight-radius-1e300", "ripple-frequency-1e-200",
                    "stability-smoothness-1e300")},
    # the ripple growth 1.04375 squares the exact second moment past float range
    "bounds-ripple-steps-8500": ("graph.kind = cycle\ngraph.n = 8\nexperiment = bounds\n"
                                 "objective = ripple\nsgd.step_size = 0.05\nsgd.steps = 8500\n",
                                 1, "BoundDomainError"),
    "train-runs-0": ("graph.kind = cycle\ngraph.n = 6\nexperiment = train\nsgd.steps = 5\n"
                     "train.perturb_vertex = 1\ntrain.runs = 0\n", 1, "ConfigError"),
    "srm-lambdas-nan": (SRM_IID_CYCLE_8 + "srm.lambdas = nan\n", 1, "ConfigError"),
    "srm-lambdas-inf": (SRM_IID_CYCLE_8 + "srm.lambdas = 0.1 inf\n", 1, "ConfigError"),
    "srm-epsilon-nan": (SRM_IID_CYCLE_8 + "srm.epsilon = nan\n", 1, "ConfigError"),
    "srm-weight-radius-nan": (SRM_IID_CYCLE_8 + "srm.weight_radius = nan\n", 1, "ValueError"),
}


@pytest.mark.parametrize("case", sorted(ENTRY_POINT_CASES))
def test_entry_point_exit_status_in_a_fresh_process(tmp_path, case):
    # `python -m grlstab.cli` ends in `raise SystemExit(main())`, the console
    # script's exit path; an exit-1 case prints exactly one JSON object on
    # stderr and leaves no output directory
    body, status, error = ENTRY_POINT_CASES[case]
    out = tmp_path / "out"
    path = write_config(tmp_path, "run.ini", f"seed = 1\nout = {out}\n" + body)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-m", "grlstab.cli", "run", str(path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == status, proc.stderr
    if status == 0:
        assert proc.stderr == ""
        rows = (out / "per_vertex.csv").read_text().splitlines()
        assert sum(not row.startswith("#") for row in rows) == 9
    else:
        err = json.loads(proc.stderr)
        assert set(err) == {"error", "message"} and err["error"] == error
        assert not out.exists()


@pytest.mark.parametrize("t_grid", ["nan", "-1", "0.5 inf"])
def test_concentration_threshold_rejected_before_any_sampling(tmp_path, capsys, monkeypatch,
                                                              t_grid):
    # with the default 20000 draws, a threshold checked only in the tail loop
    # used to run the enumeration and every Glauber chain first
    def never(*args, **kwargs):
        raise AssertionError("sampled before the thresholds were checked")

    monkeypatch.setattr(sampling.IsingSampler, "sample_spins_batch", never)
    monkeypatch.setattr(sampling, "enumerate_spin_configs", never)
    out = tmp_path / "out"
    path = write_config(tmp_path, "conc.ini", f"""
experiment = concentration
seed = 5
out = {out}
graph.kind = cycle
graph.n = 6
sampler.kind = ising
conc.t_grid = {t_grid}
""")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "conc.t_grid" in err["message"]
    assert not out.exists()


SAMPLE_ISING = """
experiment = sample
seed = 8
out = {out}
graph.n = 6
sampler.kind = ising
sampler.coupling = 0.3
sampler.sweeps = 20
"""


def test_edge_list_graph_samples_like_its_generator(tmp_path):
    # the Ising coupling follows the graph, so equal rows need equal graphs
    edges = tmp_path / "cycle6.txt"
    edges.write_text("# cycle-6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    rows = {}
    for kind, extra in [("edge-list", f"graph.path = {edges}\n"), ("cycle", "")]:
        out = tmp_path / kind
        path = write_config(tmp_path, f"{kind}.ini", SAMPLE_ISING.format(out=out)
                            + f"graph.kind = {kind}\n" + extra)
        assert run_cli(["run", path]) == 0
        rows[kind] = read_csv(out / "samples.csv")
    assert rows["edge-list"] == rows["cycle"]


def test_erdos_renyi_graph_outside_a_sweep_is_drawn_from_the_graph_stream(tmp_path):
    g = graphs.erdos_renyi_graph(6, 0.5, seed_int(8, "graph"))
    pairs = np.argwhere(np.triu(g.adjacency)).tolist()
    assert 0 < len(pairs) < 15
    edges = tmp_path / "er6.txt"
    edges.write_text("".join(f"{i} {j}\n" for i, j in pairs))
    rows = {}
    for kind, extra in [("edge-list", f"graph.path = {edges}\n"),
                        ("erdos-renyi", "graph.p = 0.5\n")]:
        out = tmp_path / kind
        path = write_config(tmp_path, f"{kind}.ini", SAMPLE_ISING.format(out=out)
                            + f"graph.kind = {kind}\n" + extra)
        assert run_cli(["run", path]) == 0
        rows[kind] = read_csv(out / "samples.csv")
    assert rows["erdos-renyi"] == rows["edge-list"]


def test_edge_list_without_path_is_user_error(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, "nopath.ini",
                        SAMPLE_ISING.format(out=out) + "graph.kind = edge-list\n")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "graph.path" in err["message"]
    assert not out.exists()


def test_edge_list_with_a_non_integer_token_names_its_line(tmp_path, capsys):
    edges = tmp_path / "bad.txt"
    edges.write_text("0 1\n1 x\n")
    out = tmp_path / "out"
    path = write_config(tmp_path, "badedges.ini", SAMPLE_ISING.format(out=out)
                        + f"graph.kind = edge-list\ngraph.path = {edges}\n")
    assert run_cli(["run", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GraphError" and err["message"].startswith("line 2:")
    assert not out.exists()


def test_internal_failure_exits_2(tmp_path, capsys, monkeypatch):
    def broken(cfg, outdir, chash):
        raise RuntimeError("runner bug")

    monkeypatch.setitem(cli.RUNNERS, "sample", broken)
    out = tmp_path / "out"
    path = write_config(tmp_path, "bug.ini", SAMPLE_ISING.format(out=out)
                        + "graph.kind = cycle\n")
    assert run_cli(["run", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "internal", "type": "RuntimeError", "message": "runner bug"}
    assert not out.exists()


def test_unknown_plot_kind_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["plots", tmp_path, "nope"])
