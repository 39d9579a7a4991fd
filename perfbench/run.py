"""grlstab benchmark: timed `grlstab run` workloads, with an optional layer trace.

    python3 perfbench/run.py --workload iid-sgd --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The jobs of one workload run in-process
through `grlstab.cli.main`, one at a time, in a worker process started with
GRLSTAB_WORKERS=1 and one BLAS thread. With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics (pass_s, setup_s,
peak_rss_mb); with --trace 1 it holds the per-layer metrics of traced
passes, and the spans of the last traced pass are written to
.perfbench/spans-<workload>.json. The lines before it are for people. See
perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402

SETUP_PROBES = 9  # fresh processes timed for setup_s, after one untimed one
WORKER_TIMEOUT_S = 170
# Work counts that must equal the counts derived from the configs.
SELF_TEST = {"sampling.site_updates": "site_updates", "sgd.trainings": "trainings",
             "sgd.steps": "steps", "gnn.fits": "fits"}
COUNTS = ("sampling.calls", "sampling.site_updates", "objectives.bind_calls",
          "sgd.trainings", "sgd.steps", "gnn.experiments", "gnn.fits", "srm.fits",
          "bounds.calls")


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["GRLSTAB_WORKERS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, workdir: Path, env: dict, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    return subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, text=True)


def finish(proc, timeout: float) -> str:
    """Wait for a worker and return its stdout; raise if it failed."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def setup_seconds(args, workdir: Path, env: dict):
    """Median time from process start to ready (grlstab.cli imported, configs written).

    Returns (seconds at the probe's reference speed, wall seconds); the speed
    probe runs just before and just after each process.
    """
    probe = SpeedProbe()
    norm, wall = [], []
    for attempt in range(SETUP_PROBES + 1):
        probe.reset()
        probe.sample_all()
        start = time.perf_counter()
        proc = start_worker(args, workdir, env, ["--setup-only"])
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        finish(proc, 60)
        if ready.strip() != "ready":
            raise RuntimeError("setup probe did not report ready")
        probe.sample_all()
        if attempt:  # the first process also compiles bytecode; users pay that once
            norm.append(elapsed * probe.scale())
            wall.append(elapsed)
    return statistics.median(norm), statistics.median(wall)


def high_percentile(values):
    """(p, value) for the highest percentile with ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[max(0, math.ceil(p / 100 * n) - 1)]


def median_of(timings, key):
    return statistics.median(t[key] for t in timings)


def trace_metrics(args, res, problems):
    layers = res["layers"]
    metrics = {}
    for key, (_, unit) in layers[0].items():
        metrics[key] = (statistics.median(layer[key][0] for layer in layers), unit)
    for key in COUNTS:
        values = {layer[key][0] for layer in layers}
        if len(values) != 1:
            problems.append(f"{key} differs between traced passes: {sorted(values)}")
    expected = workloads.workload_expected_counts(args.workload)
    for key, name in SELF_TEST.items():
        if metrics[key][0] != expected[name]:
            problems.append(f"{key} = {metrics[key][0]}, expected {expected[name]} "
                            "from the configs")
    for total, root in res["self_time_checks"]:
        if abs(total - root) > 1e-6 * max(1.0, root):
            problems.append(f"layer self times sum to {total} s, root spans to {root} s")
    metrics["process.cpu_s"] = (median_of(res["untraced"], "cpu_s"), "s")
    metrics["trace.overhead_frac"] = (
        median_of(res["traced"], "norm_s") / median_of(res["untraced"], "norm_s") - 1.0, "frac")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "grlstab" / "cli.py").is_file():
        print("perfbench: run from the root of a grlstab checkout (src/grlstab missing)",
              file=sys.stderr)
        return 2
    base = root / ".perfbench"
    workdir = base / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = worker_env(root)
    try:
        setup_s = setup_seconds(args, workdir, env) if args.trace == 0 else None
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans-out", str(base / f"spans-{args.workload}.json")]
        out = finish(start_worker(args, workdir, env, extra), WORKER_TIMEOUT_S)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(out.strip().splitlines()[-1])

    problems = list(res["problems"])
    passes = res["untraced"]
    print(f"workload {args.workload}, seed {args.seed}: {res['jobs']} jobs per pass, "
          f"{len(passes)} untraced passes after one warm-up pass")
    if args.trace == 0:
        metrics = {
            "pass_s": (median_of(passes, "norm_s"), "s"),
            "setup_s": (setup_s[0], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        hi = high_percentile([t["norm_s"] for t in passes])
        print(f"  pass_s       {metrics['pass_s'][0]:.4f} s at reference speed "
              f"(median of {len(passes)} passes; "
              + (f"p{hi[0]} {hi[1]:.4f} s" if hi else "too few for a high percentile")
              + f"; wall median {median_of(passes, 'wall_s'):.4f} s, "
              f"probe {1 - median_of(passes, 'work_frac'):.1%} of it)")
        print(f"  setup_s      {setup_s[0]:.4f} s at reference speed (median of {SETUP_PROBES} "
              f"fresh processes; wall median {setup_s[1]:.4f} s)")
        print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB")
    else:
        metrics = trace_metrics(args, res, problems)
        shares = {k: v for k, (v, u) in metrics.items() if k.endswith("self_s") or k == "gnn.fit_s"}
        dominant = max(shares, key=shares.get).split(".")[0]
        print(f"  traced passes {len(res['traced'])}; dominant layer: {dominant}")
        for key, (value, unit) in metrics.items():
            print(f"  {key:34s} {value:.6g} {unit}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"  failed_frac  {failed_frac:g} ({res['failed']} of {res['attempted']} jobs)")
    print(f"  result_digest {res['result_digest']}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
