"""Record the digests of the program's outputs for a range of seeds.

    python3 perfbench/record_golden.py --seeds 1-10,1009

Run this on the commit whose outputs are the reference (the seed commit of
the benchmark).  For each workload and seed it generates the full-size
inputs, runs the command list once and stores one digest per command in
perfbench/golden.json.  run.py then counts a command as failed when its
output differs from the recorded one.  The recorded seeds are the baseline
seeds and the held-out seed of baseline.json; any other seed is checked
against its own first pass and independently.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="seeds such as 1-10,1009")
    args = parser.parse_args()
    run._import_dgla()
    import workloads
    from dgla import cli

    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8")) if run.GOLDEN.is_file() else {}
    recorded = []
    for workload in run.WORKLOADS:
        for seed in args.seeds:
            directory = run._instance_dir(workload, seed, "full")
            shutil.rmtree(directory, ignore_errors=True)
            workloads.generate(workload, seed, "full", directory)
            commands = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))["commands"]
            cwd = os.getcwd()
            os.chdir(directory)
            try:
                _, _, failed, outputs = run.run_pass(cli, commands, None)
            finally:
                os.chdir(cwd)
            if failed:
                sys.exit(f"{workload} seed {seed}: commands {failed} exited unexpectedly")
            recorded.append((workload, seed, directory, commands, outputs))
            print(workload, seed, flush=True)
    # checks last: they import sympy, whose caches would slow the
    # gc.collect() that run_pass makes before every command
    for workload, seed, directory, commands, outputs in recorded:
        failed = workloads.check(directory, commands, [stdout for _, stdout, _ in outputs])
        if failed:
            sys.exit(f"{workload} seed {seed}: checks failed for commands {failed}")
        golden.setdefault(workload, {})[str(seed)] = [dig for _, _, dig in outputs]
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
