"""The benchmark's own gate: every workload passes at tiny sizes, the traced
run is complete and repeatable, and corrupted answers raise fail_ratio.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from reference import extents_by_brute_force, extents_by_generators  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, random_context  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_correct_at_tiny_size(workload):
    result = run.run_workload(workload, seed=1, seconds=0.3, trace=False, size="tiny")
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_with_repeatable_counts(workload):
    first, second = (
        run.run_workload(workload, seed=2, seconds=0.3, trace=True, size="tiny") for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _, _ in PER_LAYER]
    counts = [n for n, unit, _ in PER_LAYER if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first["metrics"]["cli.run_cli.calls"]["value"] == first["info"]["jobs_per_pass"]


def _corrupting(monkeypatch, corrupt):
    """Route every job through ``corrupt(argv, code, out)``."""
    real = run.invoke

    def invoke(cli, argv):
        elapsed, code, out, err = real(cli, argv)
        code, out = corrupt(argv, code, out)
        return elapsed, code, out, err

    monkeypatch.setattr(run, "invoke", invoke)


def test_flipped_verdict_raises_fail_ratio(monkeypatch):
    def flip(argv, code, out):
        if argv[0] == "valid" and out == "valid\n":
            return 1, "invalid: empty valuation falsifies at world g1\n"
        return code, out

    _corrupting(monkeypatch, flip)
    result = run.run_workload("modal-valid", seed=1, seconds=0.3, trace=False, size="tiny")
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_dropped_concept_raises_fail_ratio(monkeypatch):
    def drop(argv, code, out):
        if argv[0] == "concepts" and "text" in argv:
            head, *rows = out.splitlines()
            kind, count = head.split()
            n = int(count.split("=")[1]) - 1
            kept = [f"{i}: {row.split(': ', 1)[1]}" for i, row in enumerate(rows[:-1])]
            return code, "\n".join([f"{kind} count={n}", *kept]) + "\n"
        return code, out

    _corrupting(monkeypatch, drop)
    result = run.run_workload("lattice", seed=1, seconds=0.3, trace=False, size="tiny")
    assert not result["correct"]
    assert any("concepts listed" in p for p in result["problems"])


def test_generator_closure_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        ctx = random_context(rng, rng.randint(1, 7), rng.randint(1, 7), rng.uniform(0.2, 0.8))
        for kind in ("fc", "pc", "oc"):
            assert extents_by_generators(ctx, kind) == extents_by_brute_force(ctx, kind)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "proof", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
