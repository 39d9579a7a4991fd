"""The benchmark's four `grlstab run` workloads, their checks and work counts.

A workload is a fixed list of jobs. Each job is one config file for
`grlstab run`; only its master seed comes from the benchmark's `--seed`, so
the work a pass does is the same for every seed while the data differ.
This module does not import grlstab: the checks read the result files the
program wrote, and the expected work counts are derived from the configs
by hand, so neither depends on the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

# Sizes mirror the heaviest acceptance criteria (03, 04/05, 07, 10/11) at a
# scale where one pass takes a few seconds on a 2-core machine.
WORKLOADS = {
    # All three SGD loops (train, train_pooled, coupled_train) run here and
    # dominate; the iid sampler is a few percent. The srm job drives the
    # harness with a non-SGD learner.
    "iid-sgd": [
        ("compare", {
            "experiment": "compare", "graph.kind": "cycle", "graph.n": 16,
            "sampler.kind": "iid", "objective": "quadratic",
            "sgd.step_size": 0.1, "sgd.steps": 200,
            "harness.pert_draws": 2, "harness.test_draws": 2, "delta": 0.1,
        }),
        ("stability", {
            "experiment": "stability", "graph.kind": "cycle", "graph.n": 16,
            "sampler.kind": "iid", "objective": "ripple",
            "sgd.step_size": 0.05, "sgd.steps": 200,
            "harness.pert_draws": 2, "harness.test_draws": 2, "harness.m": 2,
        }),
        ("train", {
            "experiment": "train", "graph.kind": "cycle", "graph.n": 16,
            "sampler.kind": "iid", "objective": "quadratic",
            "objective.weight_radius": 0.15, "sgd.step_size": 0.1, "sgd.steps": 200,
            "train.perturb_vertex": 3, "train.runs": 200,
        }),
        ("srm", {
            "experiment": "srm", "graph.kind": "cycle", "graph.n": 16,
            "sampler.kind": "iid", "srm.d_max": 3,
        }),
        ("bounds", {
            "experiment": "bounds", "graph.kind": "cycle", "graph.n": 16,
            "objective": "quadratic", "sgd.step_size": 0.1, "sgd.steps": 200,
            "delta": 0.1,
        }),
    ],
    # One Glauber chain per draw, 1000 sweeps of Python-level site updates;
    # SGD is about 1% of the pass.
    "ising-stability": [
        ("stability", {
            "experiment": "stability", "graph.kind": "cycle", "graph.n": 8,
            "sampler.kind": "ising", "sampler.coupling": 0.2, "sampler.sweeps": 1000,
            "objective": "quadratic", "sgd.step_size": 0.1, "sgd.steps": 50,
            "harness.pert_draws": 1, "harness.test_draws": 1,
        }),
    ],
    # The same sampler vectorised over 8000 chains (numpy-bound), plus the
    # exact enumeration and the concentration tail bound.
    "ising-concentration": [
        ("concentration", {
            "experiment": "concentration", "graph.kind": "cycle", "graph.n": 6,
            "sampler.kind": "ising", "sampler.coupling": 0.15, "sampler.field": 0.05,
            "sampler.sweeps": 1000, "conc.draws": 8000,
        }),
    ],
    # The only workload that reaches the GNN layer; no sampler, no SGD.
    "gnn-sweep": [
        ("gnn", {
            "experiment": "gnn", "graph.kind": "erdos-renyi", "graph.n": 64,
            "gnn.kind": "label", "gnn.densities": "0.05 0.2 0.8",
            "gnn.replicates": 2, "gnn.trials": 2,
        }),
    ],
}


def job_seed(seed: int, workload: str, job: str) -> int:
    """Master seed of one job, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{workload}:{job}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def job_configs(workload: str, seed: int):
    """[(job name, config dict)] with seeds and relative output dirs filled in."""
    out = []
    for name, body in WORKLOADS[workload]:
        cfg = {"seed": job_seed(seed, workload, name), "out": f"out/{name}"}
        cfg.update(body)
        out.append((name, cfg))
    return out


def write_configs(workload: str, seed: int, workdir: Path):
    """Write one config file per job under workdir; returns [(name, path, outdir)]."""
    cfg_dir = workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, cfg in job_configs(workload, seed):
        path = cfg_dir / f"{name}.ini"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
        jobs.append((name, path, workdir / cfg["out"]))
    return jobs


# ---------------------------------------------------------------------------
# Output checks


def _rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def verdict_problems(cfg: dict, outdir: Path) -> list:
    """Verdicts in a job's result files that are not true (empty when all hold)."""
    kind = cfg["experiment"]
    problems = []
    if kind == "compare":
        bad = [r["i"] for r in _rows(outdir / "compare.csv") if r["dominated"] != "true"]
        if bad:
            problems.append(f"compare.csv: not dominated at vertices {bad}")
    elif kind == "train":
        if json.loads((outdir / "envelope.json").read_text())["ok"] is not True:
            problems.append("envelope.json: ok is not true")
    elif kind == "concentration":
        bad = [r["t"] for r in _rows(outdir / "tail.csv") if r["within_bound"] != "true"]
        if bad:
            problems.append(f"tail.csv: not within bound at t in {bad}")
    elif kind == "srm":
        if json.loads((outdir / "summary.json").read_text())["satisfied"] is not True:
            problems.append("summary.json: satisfied is not true")
    return problems


def result_digest(outdir: Path) -> str:
    """sha256 over a job's result files (names and bytes), manifest.json excluded."""
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        h.update(path.relative_to(outdir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Work counts derived from the configs


def expected_counts(cfg: dict) -> dict:
    """Glauber site updates, SGD trainings and steps, and GNN fits of one job.

    A Glauber draw costs sweeps * n site updates and a fresh-conditional
    replacement one per replaced site. A coupled run counts as two
    trainings of T steps. A label-mode GNN experiment fits the base problem
    and both label endpoints of every vertex in each trial. The srm and
    bounds jobs (iid data) do none of this work.
    """
    kind = cfg["experiment"]
    n = int(cfg["graph.n"])
    ising = cfg.get("sampler.kind") == "ising"
    draw = int(cfg["sampler.sweeps"]) * n if ising else 0
    replace = 1 if ising else 0
    counts = {"site_updates": 0, "trainings": 0, "steps": 0, "fits": 0}
    if kind in ("stability", "compare"):
        k, kp = int(cfg["harness.pert_draws"]), int(cfg["harness.test_draws"])
        # estimate_stability: K' test draws and K training draws per vertex,
        # one replacement and two trainings per training draw, plus the
        # determinism check's two trainings.
        draws, replaces, trainings = n * (k + kp), n * k, 2 * n * k + 2
        if "harness.m" in cfg:
            m = int(cfg["harness.m"])
            # estimate_mu: K' test draws, m pooled draws per (vertex, draw),
            # and one replacement and two pooled trainings per target set.
            draws += kp + n * k * m
            replaces += n * k * m
            trainings += 2 * n * k * m
        counts["site_updates"] = draws * draw + replaces * replace
        counts["trainings"] = trainings
    elif kind == "train":  # coupled runs perturbing one vertex
        runs = int(cfg["train.runs"])
        counts["site_updates"] = runs * (draw + replace)
        counts["trainings"] = 2 * runs
    elif kind == "concentration":
        counts["site_updates"] = int(cfg["conc.draws"]) * draw
    elif kind == "gnn":  # label-mode density sweep
        experiments = len(cfg["gnn.densities"].split()) * int(cfg["gnn.replicates"])
        counts["fits"] = experiments * int(cfg["gnn.trials"]) * (1 + 2 * n)
    counts["steps"] = counts["trainings"] * int(cfg.get("sgd.steps", 0))
    return counts


def workload_expected_counts(workload: str) -> dict:
    total = {"site_updates": 0, "trainings": 0, "steps": 0, "fits": 0}
    for _, cfg in job_configs(workload, 0):
        for key, value in expected_counts(cfg).items():
            total[key] += value
    return total
