"""Command-line front end.

Subcommands::

    btsearch run APP INPUT [flags]     parallel run of a bundled application
    btsearch gwtree [flags]            job-list growth experiment, CSV out
    btsearch efficiency S CORES M      efficiency/speedup arithmetic

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal abort.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

from .apps import APPLICATION_NAMES, build_application
from .budget import BUDGET_KINDS, SchedulerConfig
from .engine import run
from .errors import BtsearchError, BudgetKindError, CheckpointError, InputFormatError, MetricsError
from .metrics import compute_efficiency, write_frequency_file, write_histogram_file
from .transport import ForkTransport, ThreadTransport

USAGE_ERROR = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3

_ENUM_APPS = ("topsorts", "spantree", "gwtree")


class CliOptions(NamedTuple):
    """Parsed options for a ``run`` invocation: the engine config plus CLI-only settings."""

    app: str
    input_path: str
    prune: str
    count_only: bool
    hist_path: str | None
    freq_path: str | None
    restarts: bool
    vsids: bool
    config: SchedulerConfig


class _CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _CliError(f"{self.prog}: {message}", USAGE_ERROR)


def _unbounded_int(text: str) -> int | None:
    if text.lower() in ("inf", "none", "unbounded"):
        return None
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="btsearch", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = SchedulerConfig()
    runp = sub.add_parser("run", help="parallel run of a bundled application")
    runp.add_argument("app", choices=APPLICATION_NAMES)
    runp.add_argument("input", help="problem input file")
    runp.add_argument("-np", type=int, default=defaults.num_workers, help="number of workers")
    runp.add_argument(
        "-maxd", type=_unbounded_int, default=defaults.base_max_depth, help="initial depth budget"
    )
    runp.add_argument(
        "-maxnodes", type=_unbounded_int, default=defaults.base_max_nodes, help="node budget"
    )
    runp.add_argument(
        "-scale", type=int, default=defaults.scale, help="budget multiplier for long job lists"
    )
    runp.add_argument("-lmin", type=float, default=defaults.lmin)
    runp.add_argument("-lmax", type=float, default=defaults.lmax)
    runp.add_argument("-prune", choices=("off", "0", "1"), default="off")
    runp.add_argument("-countonly", action="store_true")
    runp.add_argument("-hist", default=None, help="histogram CSV path")
    runp.add_argument("-freq", default=None, help="frequency file path")
    runp.add_argument("-checkpoint", default=None, help="checkpoint file path")
    runp.add_argument("-restart", default=None, help="resume from this checkpoint")
    runp.add_argument(
        "-budgetkind",
        default=None,
        help=f"unit of -maxnodes: {', '.join(BUDGET_KINDS)} (default: the app's own)",
    )
    runp.add_argument("-restarts", action="store_true", help="sat: enable solver restarts")
    runp.add_argument("-vsids", action="store_true", help="sat: activity-based branching")
    runp.add_argument(
        "-stopafter", type=int, default=None,
        help="checkpoint and stop after this many jobs (migration; needs -checkpoint)",
    )

    gwp = sub.add_parser("gwtree", help="job-list growth experiment (CSV)")
    gwp.add_argument("-law", default="catalan")
    gwp.add_argument("-k", type=int, default=None, help="parameter for binomial/uniform laws")
    gwp.add_argument("-size", type=int, default=1_000_000, help="target tree size")
    gwp.add_argument("-budget", type=int, default=5000)
    gwp.add_argument("-trials", type=int, default=20)
    gwp.add_argument("-seed", type=int, default=0)
    gwp.add_argument("-out", default=None, help="CSV path (default stdout)")

    effp = sub.add_parser("efficiency", help="efficiency/speedup arithmetic")
    effp.add_argument("single", type=float, help="single core seconds")
    effp.add_argument("cores", type=int)
    effp.add_argument("multi", type=float, help="multicore seconds")
    return parser


def parse_cli(argv: Sequence[str]) -> CliOptions:
    """Parse a ``run`` command line into options and a validated engine config.

    Out-of-range values are usage errors, and so is ``-stopafter`` without
    ``-checkpoint``.  Whether the app accepts the budget kind is checked by
    ``run``, before any worker starts.
    """
    ns = _build_parser().parse_args(["run", *argv] if argv and argv[0] not in ("run",) else argv)
    if ns.command != "run":
        raise _CliError("parse_cli handles 'run' invocations", USAGE_ERROR)
    return _run_options(ns)


def _run_options(ns: argparse.Namespace) -> CliOptions:
    """The options of a parsed ``run`` command line; see :func:`parse_cli`."""
    if ns.app == "sat" and ns.countonly:
        raise _CliError("sat streams its verdict; -countonly is not supported", USAGE_ERROR)
    try:
        config = SchedulerConfig(
            num_workers=ns.np,
            base_max_depth=ns.maxd,
            base_max_nodes=ns.maxnodes,
            scale=ns.scale,
            lmin=ns.lmin,
            lmax=ns.lmax,
            budget_kind=ns.budgetkind,
            checkpoint_path=ns.checkpoint,
            restart_path=ns.restart,
            stop_after_jobs=ns.stopafter,
        )
    except ValueError as exc:
        raise _CliError(f"btsearch: {exc}", USAGE_ERROR) from None
    if ns.stopafter is not None and ns.checkpoint is None:
        # without a checkpoint the jobs left at the stop would be lost
        raise _CliError("btsearch: -stopafter needs -checkpoint", USAGE_ERROR)
    return CliOptions(
        app=ns.app,
        input_path=ns.input,
        prune=ns.prune,
        count_only=ns.countonly,
        hist_path=ns.hist,
        freq_path=ns.freq,
        restarts=ns.restarts,
        vsids=ns.vsids,
        config=config,
    )


def _cmd_run(opts: CliOptions, transport: type) -> int:
    try:
        input_bytes = Path(opts.input_path).read_bytes()
    except OSError as exc:
        print(f"btsearch: cannot read input: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if opts.app in _ENUM_APPS:
        app = build_application(opts.app, prune=opts.prune, count_only=opts.count_only)
    else:
        app = build_application(opts.app, restarts=opts.restarts, vsids=opts.vsids)
    try:
        report = run(app, input_bytes, opts.config, out=sys.stdout, transport=transport)
    except BudgetKindError as exc:
        print(f"btsearch: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (InputFormatError, CheckpointError) as exc:
        print(f"btsearch: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except BtsearchError as exc:
        print(f"btsearch: aborted: {exc}", file=sys.stderr)
        _drop_unwritable_stdout()
        return INTERNAL_ERROR
    # the run's result stands even when an instrumentation file cannot be written
    if opts.freq_path and not write_frequency_file(report.frequencies, opts.freq_path):
        print(f"btsearch: cannot write frequency file {opts.freq_path}", file=sys.stderr)
    if opts.hist_path and not write_histogram_file(report.samples, opts.hist_path):
        print(f"btsearch: cannot write histogram file {opts.hist_path}", file=sys.stderr)
    print(
        f"btsearch: {report.jobs_executed} jobs, {report.total_output_count} outputs, "
        f"{report.wall_time:.3f}s"
        + ("" if report.completed else " (stopped early, checkpoint written)"),
        file=sys.stderr,
    )
    return 0


def _drop_unwritable_stdout() -> None:
    """Point stdout at the null device if it can no longer be written.

    Otherwise the interpreter's flush at exit fails again on a closed pipe,
    prints a second error and exits 120.
    """
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_gwtree(ns: argparse.Namespace) -> int:
    # Imported here so that other subcommands do not pay for loading numpy.
    from .apps.gwtree import GWExperiment, make_law, measure_joblist_ratio, write_experiment_csv

    try:
        law = make_law(ns.law, k=ns.k)
        experiment = GWExperiment(
            law=law, target_size=ns.size, budget=ns.budget, trials=ns.trials, seed=ns.seed
        )
        result = measure_joblist_ratio(experiment)
    except (InputFormatError, ValueError) as exc:
        print(f"btsearch: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if ns.out:
        try:
            with open(ns.out, "w", encoding="ascii") as fh:
                write_experiment_csv(result, fh)
        except OSError as exc:
            print(f"btsearch: cannot write {ns.out}: {exc}", file=sys.stderr)
            return INPUT_ERROR
    else:
        try:
            write_experiment_csv(result, sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            print(
                f"btsearch: aborted: cannot write the output ({type(exc).__name__}: {exc})",
                file=sys.stderr,
            )
            _drop_unwritable_stdout()
            return INTERNAL_ERROR
    print(
        f"btsearch: mean ratio {result.mean_ratio:.6f}, predicted {result.predicted:.6f}",
        file=sys.stderr,
    )
    return 0


def _cmd_efficiency(ns: argparse.Namespace) -> int:
    try:
        rec = compute_efficiency(ns.single, ns.cores, ns.multi)
    except MetricsError as exc:
        print(f"btsearch: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"efficiency {rec.efficiency:.3f} speedup {rec.speedup:.2f}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; ``None`` means this program's own ``sys.argv``.

    Only the program, which owns its process, forks its workers; a caller
    that passes ``argv`` gets thread workers.
    """
    transport = ForkTransport if argv is None else ThreadTransport
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _build_parser().parse_args(argv)
        if ns.command == "run":
            return _cmd_run(_run_options(ns), transport)
        if ns.command == "gwtree":
            return _cmd_gwtree(ns)
        return _cmd_efficiency(ns)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
