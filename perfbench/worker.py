"""One benchmark process: set up a workload, then time passes of its jobs.

Run by run.py, never by hand. The working directory is a scratch directory
inside the checkout; result paths in the configs are relative to it, so
result files (and their digests) do not depend on where the checkout is.
Prints `ready` once grlstab.cli is imported and the configs are written,
then, unless --setup-only, one JSON line with the measurements.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from probe import SpeedProbe

MIN_PASSES = 3  # timed passes per run, however long a pass takes
MIN_TRACED = 2  # traced passes, to check that the work counters repeat


def run_pass(cli, jobs, configs, probe):
    """Run every job once with the speed probe on.

    Returns (seconds inside cli.main, of which probe seconds, [(problems, digest)]).
    """
    busy = 0.0
    probe.reset()
    outcomes = []
    for (name, path, outdir), (_, cfg) in zip(jobs, configs):
        shutil.rmtree(outdir, ignore_errors=True)
        start = time.perf_counter()
        probe.start()
        try:
            code = cli.main(["run", str(path)])
        except Exception as exc:  # a crash counts as a failed job, not a benchmark error
            code = f"{type(exc).__name__}: {exc}"
        finally:
            probe.stop()
        busy += time.perf_counter() - start
        if code != 0:
            outcomes.append(([f"{name}: exit {code}"], None))
            continue
        try:
            problems = [f"{name}: {p}" for p in workloads.verdict_problems(cfg, outdir)]
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"{name}: unreadable result ({type(exc).__name__}: {exc})"]
        outcomes.append((problems, workloads.result_digest(outdir)))
    return busy, probe.total_s, outcomes


class Passes:
    """Runs passes and counts failed jobs against the first pass's digests."""

    def __init__(self, cli, jobs, configs):
        self.cli, self.jobs, self.configs = cli, jobs, configs
        self.probe = SpeedProbe()
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self) -> dict:
        """One pass: wall and CPU seconds, and seconds at the probe's reference speed."""
        gc.collect()
        cpu = time.process_time()
        busy, probe_s, outcomes = run_pass(self.cli, self.jobs, self.configs, self.probe)
        cpu = time.process_time() - cpu
        work = busy - probe_s
        timing = {"wall_s": busy, "cpu_s": cpu, "norm_s": work * self.probe.scale(),
                  "work_frac": work / busy}
        digests = [d for _, d in outcomes]
        if self.reference is None:
            self.reference = digests
        for (name, _, _), (problems, digest), ref in zip(self.jobs, outcomes, self.reference):
            self.attempted += 1
            if not problems and digest != ref:
                problems = [f"{name}: result files differ from the first pass"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return timing

    def digest(self) -> str:
        """One digest over every job's result files from the first pass."""
        return hashlib.sha256("".join(d or "-" for d in self.reference).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    import grlstab.cli as cli

    jobs = workloads.write_configs(args.workload, args.seed, Path.cwd())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    configs = workloads.job_configs(args.workload, args.seed)
    passes = Passes(cli, jobs, configs)
    passes.run()  # warm-up; its results are the reference for byte identity
    result = {"jobs": len(jobs)}
    untraced = []
    deadline = time.perf_counter() + args.seconds
    if args.trace == 0:
        while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
            untraced.append(passes.run())
    else:
        from layertrace import Tracer, layer_metrics

        tracer = Tracer()
        traced, layers, checks = [], [], []
        while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
            untraced.append(passes.run())
            tracer.spans.clear()
            tracer.install()
            try:
                timing = passes.run()
            finally:
                tracer.uninstall()
            traced.append(timing)
            # Span times include probe time; scale them like the pass time.
            scale = timing["norm_s"] / timing["wall_s"]
            metrics, check = layer_metrics(tracer.spans, scale)
            layers.append(metrics)
            checks.append(check)
        result.update({"traced": traced, "layers": layers, "self_time_checks": checks})
        if args.spans_out is not None:
            args.spans_out.write_text(json.dumps(
                [{"name": s[0], "start": s[2], "end": s[3], "parent": s[4]}
                 for s in tracer.spans]), encoding="utf-8")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "untraced": untraced,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "problems": passes.problems[:20],
        "result_digest": passes.digest(),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
