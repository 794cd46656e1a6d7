#!/usr/bin/env python3
"""Run one workload of the conceptlogic benchmark and print its metrics.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

The benchmark drives the CLI entry point ``conceptlogic.cli.run_cli`` in
this process: one client, closed loop, no threads.  Set-up imports the
package from ``src/``, writes the seeded inputs under ``.perfbench_out/``
and runs one job of each class as a warm-up; it is repeated ``SETUP_REPS``
times and ``setup_s`` is the median.  The timed phase then cycles through
the jobs for ``--seconds``.  Every distinct output is checked against the
benchmark's own reference after the timed phase.

With ``--trace 1`` the run instead makes three whole passes, the middle one
traced (so call counts depend only on the seed), reports the per-layer
metrics and writes the spans to ``.perfbench_out/spans-<workload>.tsv``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say the same
for a reader.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402

SETUP_REPS = 5

# The tail percentile is fixed per workload so that runs compare.  Each
# leaves at least ten jobs beyond it in a 20-second run at this commit's job
# counts, and falls inside a group of jobs of like cost rather than between
# two groups, where a few jobs more or less would move it far.
TAIL_PERCENTILE = {"lattice": 90, "modal-valid": 95, "modal-refute": 97, "proof": 85}

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_program():
    """Import ``conceptlogic.cli`` afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "conceptlogic" or n.startswith("conceptlogic.")]:
        del sys.modules[name]
    return importlib.import_module("conceptlogic.cli")


def invoke(cli, argv) -> tuple[float, int | str, str, str]:
    """One job: seconds from the call of ``run_cli`` to its exit code, and
    the exit code (or the exception it raised) with both output streams."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.run_cli(list(argv), out=out, err=err)
    except Exception as exc:  # a traceback is a wrong answer, counted in fail_ratio
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def set_up(workload: str, seed: int, size: str, workdir: Path):
    start = time.perf_counter()
    cli = import_program()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = build_jobs(workload, seed, workdir, size)
    warmed = set()
    for job in jobs:
        if job.cls not in warmed:
            warmed.add(job.cls)
            invoke(cli, job.argv)
    return time.perf_counter() - start, cli, jobs


class Outcomes:
    """Distinct (exit code, stdout, stderr) per job, with repeat counts."""

    def __init__(self) -> None:
        self.by_job: dict[int, dict[tuple, int]] = {}
        self.attempted = 0

    def add(self, index: int, code, out: str, err: str) -> None:
        seen = self.by_job.setdefault(index, {})
        seen[(code, out, err)] = seen.get((code, out, err), 0) + 1
        self.attempted += 1

    def failures(self, jobs) -> tuple[int, list[str]]:
        failed, notes = 0, []
        for index, seen in self.by_job.items():
            job = jobs[index]
            for (code, out, err), n in seen.items():
                problem = code if isinstance(code, str) else job.check(code, out, err)
                if problem:
                    failed += n
                    notes.append(f"{' '.join(job.argv)}: {problem}")
        return failed, notes


def run_pass(cli, jobs, outcomes: Outcomes, tracer: Tracer | None = None) -> float:
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        _, code, out, err = invoke(cli, job.argv)
        outcomes.add(index, code, out, err)
    return time.perf_counter() - start


def run_timed(cli, jobs, seconds: float, outcomes: Outcomes) -> tuple[float, list[float]]:
    """Repeat whole passes until ``seconds`` have passed, so that every job
    weighs the same in the figures whenever the clock runs out."""
    latencies = []
    start = time.perf_counter()
    while len(latencies) % len(jobs) or not latencies or time.perf_counter() - start < seconds:
        index = len(latencies) % len(jobs)
        elapsed, code, out, err = invoke(cli, jobs[index].argv)
        latencies.append(elapsed)
        outcomes.add(index, code, out, err)
    return time.perf_counter() - start, latencies


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, measure and check one workload; returns the result record."""
    workdir = OUT / f"work-{workload}-{seed}"
    try:
        setups = []
        for _ in range(SETUP_REPS):
            took, cli, jobs = set_up(workload, seed, size, workdir)
            setups.append(took)
        outcomes = Outcomes()
        info: dict = {"jobs_per_pass": len(jobs)}
        if trace:
            # untraced passes on both sides of the traced one, so drift in
            # the host's speed does not read as tracing overhead
            before = run_pass(cli, jobs, outcomes)
            tracer = Tracer()
            tracer.install()
            try:
                traced = len(jobs) / run_pass(cli, jobs, outcomes, tracer)
            finally:
                tracer.uninstall()
            untraced = 2 * len(jobs) / (before + run_pass(cli, jobs, outcomes))
            metrics = tracer.metrics(untraced, traced)
            units = {name: unit for name, unit, _ in PER_LAYER}
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{workload}.tsv")
            info["spans"] = len(tracer.spans)
        else:
            elapsed, latencies = run_timed(cli, jobs, seconds, outcomes)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            pct = TAIL_PERCENTILE[workload]
            tail = statistics.quantiles(latencies, n=100)[pct - 1] if len(latencies) > 1 else latencies[0]
            metrics = {
                "jobs_per_s": len(latencies) / elapsed,
                "job_p50_ms": statistics.median(latencies) * 1e3,
                "job_tail_ms": tail * 1e3,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setups),
            }
            units = END_TO_END_UNITS
            info["tail"] = f"p{pct} of {len(latencies)} jobs, {sum(t > tail for t in latencies)} beyond"
        failed, notes = outcomes.failures(jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": info,
        "problems": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conceptlogic" / "cli.py").is_file():
        print(f"perfbench: no conceptlogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in result["problems"][:10]:
        print(f"perfbench: wrong answer: {note[:300]}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio = {ratio:.6g} ratio ({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
