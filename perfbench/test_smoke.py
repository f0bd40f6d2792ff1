"""Smoke tests of the benchmark itself, on the smoke size of each workload.

    python3 -m pytest perfbench/test_smoke.py

They run every command list with its correctness checks in seconds, check
that the printed metrics are the ones BENCHMARK.json declares, that the
counts of two traced runs repeat exactly, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload):
    result = _result(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric in BENCHMARK["per_layer"]:
        if metric["unit"] != "s":
            name = metric["name"]
            assert first["metrics"][name] == second["metrics"][name], name


def test_pbw_series_matches_the_engine():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from dgla.freelie import FreeGLA, GradedGenerator
    from workloads import pbw_dims

    for degrees in ([1, 1, 1], [1, 2], [1, 1, 3], [2, 2]):
        gla = FreeGLA([GradedGenerator(f"g{i}", d) for i, d in enumerate(degrees)])
        assert pbw_dims(degrees, 6) == [gla.dim(k) for k in range(1, 7)], degrees


def test_refuses_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
