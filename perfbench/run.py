"""Benchmark of the dgla command line on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/dgla`, nothing needs installing.  One run:

1. sets up the workload SETUP_REPEATS times, each in a fresh interpreter
   (`import dgla` plus generating and writing the inputs from the seed);
2. starts one single-threaded measuring process that runs the workload's
   command list through `dgla.cli.main(argv)` in passes until `--seconds`
   have elapsed.  Every command builds fresh objects.  Each output is
   compared with the seed commit's output (golden.json) and with the first
   pass, and its exit code with the expected one.  Between two passes it
   waits for one more set-up, into a scratch directory;
3. checks the first pass's outputs independently (workloads.check).

With `--trace 0` it reports the end-to-end metrics: `run_s` (mean pass
time), `slowest_op_s` (largest mean command time), `setup_s` (median of
all set-ups) and `peak_rss_mib` of the measuring process itself; the error
rate is `failed` over `attempted`.  The speed of a shared machine drifts in
spells of seconds to minutes.  So times are means over the passes of a run,
which vary less from run to run than medians, and the set-ups are spread
over the whole run rather than taken in one burst.  With `--trace 1` the
measuring process spends half the time on untraced passes and then runs two
traced passes (tracing.py); it reports the counts of the first, which must
equal those of the second, and the mean of the two for times.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("model-building", "relative-automorphisms", "finite-dim-targets")
SETUP_REPEATS = 6
MIN_PASSES = 3
# A child is killed after twice its time budget plus this margin.
CHILD_MARGIN_S = 60


def _import_dgla():
    """Import dgla from this checkout's sources, never from elsewhere."""
    if not (SRC / "dgla" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dgla sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dgla

    if Path(dgla.__file__).resolve().parent != (SRC / "dgla").resolve():
        sys.exit(f"perfbench: imported dgla from {dgla.__file__}, not from {SRC}")
    return dgla


def _instance_dir(workload: str, seed: int, size: str) -> Path:
    return WORK / f"{workload}-{seed}-{size}"


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- measuring process -----------------------------------------------------------


def digest(code, stdout: str, out_bytes: bytes) -> str:
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(stdout.encode())
    h.update(b"\0")
    h.update(out_bytes)
    return h.hexdigest()[:16]


def run_command(cli, command: dict):
    """Run one command in-process; returns (seconds, exit code, stdout, digest)."""
    out_path = Path(command["out"]) if "out" in command else None
    if out_path is not None and out_path.exists():
        out_path.unlink()
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(command["argv"])
        except SystemExit as e:
            code = e.code
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = "crash"
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    if code != command["exit"]:
        sys.stderr.write(f"perfbench: {command['argv']} exited {code}: {stderr.getvalue()}\n")
    out_bytes = out_path.read_bytes() if out_path is not None and out_path.exists() else b""
    return elapsed, code, stdout.getvalue(), digest(code, stdout.getvalue(), out_bytes)


def run_pass(cli, commands, reference):
    """One pass over the command list.  Returns (pass seconds, per-command
    seconds, failed command indices, outputs)."""
    times, failed, outputs = [], [], []
    for i, command in enumerate(commands):
        elapsed, code, stdout, dig = run_command(cli, command)
        times.append(elapsed)
        outputs.append((code, stdout, dig))
        if code != command["exit"] or (reference is not None and dig != reference[i]):
            failed.append(i)
    return sum(times), times, failed, outputs


def measure(args) -> None:
    _import_dgla()
    from dgla import cli

    import_rss = _rss_mib()
    directory = _instance_dir(args.workload, args.seed, args.size)
    scratch = directory.with_name(directory.name + ".setup")
    os.chdir(directory)
    manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))
    commands = manifest["commands"]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    reference = golden.get(args.workload, {}).get(str(args.seed)) if args.size == "full" else None
    if reference is not None and len(reference) != len(commands):
        sys.exit("perfbench: golden.json does not match the command list")

    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    passes, cmd_times, failed_cmds, setup_times = [], [[] for _ in commands], set(), []
    attempted = failed = 0
    first = None
    while len(passes) < MIN_PASSES or time.perf_counter() - start < budget:
        total, times, bad, outputs = run_pass(cli, commands, reference)
        if first is None:
            first = outputs
            reference = reference or [dig for _, _, dig in outputs]
        passes.append(total)
        for i, t in enumerate(times):
            cmd_times[i].append(t)
        attempted += len(commands)
        failed += len(bad)
        failed_cmds.update(bad)
        setup_times.append(_setup_once(args, scratch, own_group=False))
    shutil.rmtree(scratch)

    out_dir = Path("outputs")
    out_dir.mkdir(exist_ok=True)
    for i, (_, stdout, _) in enumerate(first):
        (out_dir / f"{i}.stdout").write_text(stdout, encoding="utf-8")
    result = {
        "passes": passes,
        "command_means": [statistics.mean(t) for t in cmd_times],
        "setup_times": setup_times,
        "import_rss_mib": import_rss,
        "peak_rss_mib": _rss_mib(),
    }
    if args.trace:
        from tracing import COUNT_METRICS, Tracer

        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            for _ in range(2):
                tracer.reset()
                total, _, bad, _ = run_pass(cli, commands, reference)
                attempted += len(commands)
                failed += len(bad)
                failed_cmds.update(bad)
                traced.append(tracer.metrics(total, statistics.mean(passes)))
                if len(traced) == 1:
                    tracer.write_spans("trace-spans.json")
        finally:
            tracer.uninstall()
        # counts come from the first traced pass, times are the mean of both
        result["layers"] = {
            name: value if name in COUNT_METRICS else statistics.mean(t[name] for t in traced)
            for name, value in traced[0].items()
        }
        result["counts_repeat"] = all(traced[0][k] == traced[1][k] for k in COUNT_METRICS)
    result.update(attempted=attempted, failed=failed, failed_commands=sorted(failed_cmds))
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")


# -- set-up process ----------------------------------------------------------------


def setup(args) -> None:
    _import_dgla()
    import workloads

    workloads.generate(args.workload, args.seed, args.size, Path(args.dir))


# -- orchestration ---------------------------------------------------------------


def _child(args, role: str, directory: Path | None = None) -> list[str]:
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ]
    return argv + ["--dir", str(directory)] if directory is not None else argv


def _kill(proc: subprocess.Popen) -> None:
    """Kill a child and, if it leads a process group, everything in it."""
    with contextlib.suppress(ProcessLookupError):
        if os.getpgid(proc.pid) == proc.pid:
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()


def _start(argv: list[str], own_group: bool) -> subprocess.Popen:
    # The children of the orchestrating process lead their own process
    # group; the set-ups that the measuring process starts stay in its
    # group, so that killing the measuring process also ends them.
    return subprocess.Popen(
        argv, env=_env(), stdout=subprocess.DEVNULL, process_group=0 if own_group else None
    )


def _wait(proc: subprocess.Popen, what: str, timeout: float) -> None:
    """Block until a child ends, killing it after `timeout` seconds."""
    timer = threading.Timer(timeout, _kill, (proc,))
    timer.start()
    try:
        proc.wait()
    except BaseException:
        _kill(proc)
        proc.wait()
        raise
    finally:
        timer.cancel()
    if proc.returncode == -signal.SIGKILL:
        sys.exit(f"perfbench: {what} was killed after {timeout:g} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {what} failed with exit code {proc.returncode}")


def _setup_once(args, directory: Path, own_group: bool) -> float:
    shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    _wait(_start(_child(args, "setup", directory), own_group), "set-up", CHILD_MARGIN_S)
    return time.perf_counter() - start


def _env() -> dict:
    # a fixed string-hash seed keeps set and dict iteration orders, and so
    # the traced counts, the same from run to run
    return {**os.environ, "PYTHONHASHSEED": "0"}


def orchestrate(args) -> dict:
    directory = _instance_dir(args.workload, args.seed, args.size)
    setup_times = [_setup_once(args, directory, own_group=True) for _ in range(SETUP_REPEATS)]

    _wait(
        _start(_child(args, "measure"), own_group=True),
        "measuring process",
        2 * args.seconds + CHILD_MARGIN_S,
    )
    result = json.loads((directory / "result.json").read_text(encoding="utf-8"))

    import workloads

    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    stdouts = [
        (directory / "outputs" / f"{i}.stdout").read_text(encoding="utf-8")
        for i in range(len(manifest["commands"]))
    ]
    check_failed = workloads.check(directory, manifest["commands"], stdouts)
    failed = result["failed"] + len(set(check_failed) - set(result["failed_commands"]))
    for i in sorted(set(check_failed)):
        print(f"check failed: {manifest['commands'][i]['argv']}", file=sys.stderr)
    correct = failed == 0 and result.get("counts_repeat", True)
    if not result.get("counts_repeat", True):
        print("trace counts differ between the two traced passes", file=sys.stderr)

    if args.trace:
        from tracing import METRICS

        metrics = {name: (result["layers"][name], METRICS[name]) for name in METRICS}
    else:
        metrics = {
            "run_s": (statistics.mean(result["passes"]), "s"),
            "slowest_op_s": (max(result["command_means"]), "s"),
            "setup_s": (statistics.median(setup_times + result["setup_times"]), "s"),
            "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(
        f"{args.workload}  error_rate = {failed / result['attempted']:.6g} ratio "
        f"({failed} of {result['attempted']} commands)  passes = {len(result['passes'])}  "
        f"rss after import = {result['import_rss_mib']:.6g} MiB"
    )
    return {
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--role", choices=("run", "setup", "measure"), default="run", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "setup":
        setup(args)
    elif args.role == "measure":
        measure(args)
    else:
        _import_dgla()
        summary = orchestrate(args)
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
