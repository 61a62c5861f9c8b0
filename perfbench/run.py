"""btsearch benchmark: one seeded workload, end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spantree-count --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times ``btsearch run`` in subprocesses at -np 1 and
-np P (P = the CPUs this process may use, at least 2), alternating the two,
for ``--seconds``, and reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs the same invocations in-process with timing
proxies around the layer boundaries (see layers.py) and reports the
per-layer metrics instead.  Every output is checked against an exact
answer computed during set-up.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

# A single CLI invocation that takes longer than this is killed and failed.
INVOCATION_TIMEOUT_S = 60.0
MIN_REPS = 3

Mangle = Callable[[str], str]


def parallel_workers() -> int:
    """The -np of the parallel run: every CPU this process may use, at least 2."""
    return max(2, len(os.sched_getaffinity(0)))


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "btsearch").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip()


# --------------------------------------------------------------------------
# End-to-end runs
# --------------------------------------------------------------------------


@dataclass
class Invocation:
    wall_s: float
    maxrss_kb: int
    exit_code: int
    stdout: str


def invoke(app: str, input_path: Path, flags: list[str], np: int, workdir: Path) -> Invocation:
    """Run ``btsearch run`` once in a fresh interpreter, stdout to a file.

    The child is reaped with ``wait4`` so its own peak RSS is read from its
    rusage; a timer kills it after INVOCATION_TIMEOUT_S.
    """
    out_path = workdir / "stdout.txt"
    err_path = workdir / "stderr.txt"
    argv = [sys.executable, "-m", "btsearch.cli", "run", app, str(input_path), *flags, "-np", str(np)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss, proc.returncode, out_path.read_text())


@dataclass
class Tally:
    """Outcome counts over every checked run; ``problems`` says what failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_cases(
    prepared, np: int, workdir: Path, tally: Tally, mangle: Mangle | None = None
) -> tuple[float, int]:
    """One pass over every case at ``np`` workers: (total wall s, peak RSS KB)."""
    wall = 0.0
    maxrss_kb = 0
    for case in prepared.cases:
        outputs = []
        problems = []
        for flags in case.invocations:
            inv = invoke(prepared.app, case.input_path, flags, np, workdir)
            wall += inv.wall_s
            maxrss_kb = max(maxrss_kb, inv.maxrss_kb)
            if inv.exit_code != 0:
                problems.append(f"exit code {inv.exit_code} for flags {flags}")
            outputs.append(mangle(inv.stdout) if mangle else inv.stdout)
        if not problems:
            problems = case.check(outputs)
        tally.record([f"{case.input_path.name} -np {np}: {p}" for p in problems])
    return wall, maxrss_kb


class SetupTimer:
    """Times the benchmark's own ``app.init`` over every case input.

    Each round repeats the inits for at least ``round_s`` and records the
    mean; rounds are spread over the run so the median sees the machine in
    the same states as the wall-time samples.
    """

    def __init__(self, prepared, round_s: float = 0.03) -> None:
        from btsearch.apps import build_application

        self.app = build_application(prepared.app, **prepared.app_options)
        self.inputs = [case.input_path.read_bytes() for case in prepared.cases]
        self.round_s = round_s
        self.rounds: list[float] = []

    def round(self) -> None:
        count = 0
        start = time.perf_counter()
        while True:
            for data in self.inputs:
                self.app.init(data)
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= self.round_s:
                break
        self.rounds.append(elapsed / count)


def measure_end_to_end(
    prepared,
    seconds: float,
    workdir: Path,
    mangle: Mangle | None = None,
    min_reps: int = MIN_REPS,
) -> tuple[dict, Tally]:
    """Alternate -np 1 and -np P passes until ``seconds`` have been measured."""
    p = parallel_workers()
    tally = Tally()
    run_cases(prepared, p, workdir, tally, mangle)  # fills bytecode and file caches
    setup = SetupTimer(prepared)
    walls: dict[int, list[float]] = {1: [], p: []}
    rss: list[int] = []
    begin = time.perf_counter()
    rep = 0
    while rep < min_reps or time.perf_counter() - begin < seconds:
        for np in ((1, p) if rep % 2 == 0 else (p, 1)):
            wall, maxrss_kb = run_cases(prepared, np, workdir, tally, mangle)
            walls[np].append(wall)
            if np == p:
                rss.append(maxrss_kb)
            setup.round()
        rep += 1
    wall_p = statistics.median(walls[p])
    wall_1 = statistics.median(walls[1])
    metrics = {
        "wall_s": (wall_p, "s"),
        "wall_p1_s": (wall_1, "s"),
        "efficiency": (wall_1 / (p * wall_p), "ratio"),
        "setup_s": (statistics.median(setup.rounds), "s"),
        "peak_rss_mb": (statistics.median(rss) / 1024.0, "MB"),
    }
    return metrics, tally


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "btsearch" / "__init__.py").is_file():
        print(f"perfbench: no btsearch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prepared = workloads.prepare(args.workload, args.seed, workdir)
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "git_sha": git_sha(),
            "src_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "np": parallel_workers(),
            **prepared.notes,
        }
        print(json.dumps(info))
        if args.trace:
            import layers

            tally = Tally()
            metrics = layers.measure_layers(prepared, args.seconds, parallel_workers(), tally)
        else:
            metrics, tally = measure_end_to_end(prepared, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted} runs)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
