"""Measure the benchmark on several seeds and record the summary.

    python3 perfbench/baseline.py --seeds 1-10 --trace-seed 1

For every workload it runs `run.py` for BENCHMARK.json's `run_seconds`,
once per seed with tracing off and once on the trace seed with tracing on.
It then writes, under the key "baseline" of perfbench/baseline.json, each
end-to-end metric's median, quartiles and IQR/median over the seeds, the
per-layer metrics of the traced run, and the Python version and core count.
Other keys of the file are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from record_golden import _seeds

HERE = Path(__file__).resolve().parent
OUT = HERE / "baseline.json"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(workload, seed, trace, json.dumps(result), flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="seeds such as 1-10")
    parser.add_argument("--trace-seed", type=int, required=True)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "trace_seed": args.trace_seed,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(workload, seed, bench["run_seconds"], 0) for seed in args.seeds]
        traced = _run(workload, args.trace_seed, bench["run_seconds"], 1)
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                for m in bench["end_to_end"]
            },
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
        }
    doc = json.loads(OUT.read_text(encoding="utf-8")) if OUT.is_file() else {}
    doc["baseline"] = summary
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
