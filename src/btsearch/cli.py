"""Command-line front end.

Subcommands::

    btsearch run APP INPUT [flags]     parallel run of a bundled application
    btsearch gwtree [flags]            job-list growth experiment, CSV out
    btsearch efficiency S CORES M      efficiency/speedup arithmetic

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal abort.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .apps import APPLICATION_NAMES, build_application
from .budget import SchedulerConfig
from .engine import run
from .errors import BtsearchError, CheckpointError, InputFormatError, MetricsError
from .metrics import compute_efficiency, write_frequency_file, write_histogram_file

USAGE_ERROR = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3

_ENUM_APPS = ("topsorts", "spantree", "gwtree")


@dataclass
class CliOptions:
    """Parsed options for a ``run`` invocation."""

    app: str
    input_path: str
    num_workers: int
    max_depth: int | None
    max_nodes: int | None
    scale: int
    lmin: float
    lmax: float
    prune: str
    count_only: bool
    hist_path: str | None
    freq_path: str | None
    checkpoint_path: str | None
    restart_path: str | None
    budget_kind: str
    seed: int | None
    restarts: bool
    vsids: bool
    stop_after: int | None


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
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1 or 'inf'")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="btsearch", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="parallel run of a bundled application")
    runp.add_argument("app", choices=APPLICATION_NAMES)
    runp.add_argument("input", help="problem input file")
    runp.add_argument("-np", type=int, default=4, dest="np", help="number of workers")
    runp.add_argument("-maxd", type=_unbounded_int, default=2, help="initial depth budget")
    runp.add_argument("-maxnodes", type=_unbounded_int, default=5000, help="node budget")
    runp.add_argument("-scale", type=int, default=40, help="budget multiplier for long job lists")
    runp.add_argument("-lmin", type=float, default=1.0)
    runp.add_argument("-lmax", type=float, default=3.0)
    runp.add_argument("-prune", choices=("off", "0", "1"), default="off")
    runp.add_argument("-countonly", action="store_true")
    runp.add_argument("-hist", default=None, help="histogram CSV path")
    runp.add_argument("-freq", default=None, help="frequency file path")
    runp.add_argument("-checkpoint", default=None, help="checkpoint file path")
    runp.add_argument("-restart", default=None, help="resume from this checkpoint")
    runp.add_argument(
        "-budgetkind", choices=("nodes", "decisions", "conflicts"), default=None
    )
    runp.add_argument("-seed", type=int, default=None)
    runp.add_argument("-restarts", action="store_true", help="sat: enable solver restarts")
    runp.add_argument("-vsids", action="store_true", help="sat: activity-based branching")
    runp.add_argument(
        "-stopafter", type=int, default=None,
        help="checkpoint and stop after this many jobs (migration)",
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
    """Parse a ``run`` command line into options, applying the defaults."""
    ns = _build_parser().parse_args(["run", *argv] if argv and argv[0] not in ("run",) else argv)
    if ns.command != "run":
        raise _CliError("parse_cli handles 'run' invocations", USAGE_ERROR)
    if ns.lmin > ns.lmax:
        raise _CliError("lmin must not exceed lmax", USAGE_ERROR)
    if ns.np < 1:
        raise _CliError("need at least one worker", USAGE_ERROR)
    budget_kind = ns.budgetkind
    if budget_kind is None:
        budget_kind = "decisions" if ns.app == "sat" else "nodes"
    if ns.app == "sat" and budget_kind == "nodes":
        raise _CliError("sat needs -budgetkind decisions or conflicts", USAGE_ERROR)
    if ns.app != "sat" and budget_kind != "nodes":
        raise _CliError(f"{ns.app} only supports -budgetkind nodes", USAGE_ERROR)
    if ns.app == "sat" and ns.countonly:
        raise _CliError("sat streams its verdict; -countonly is not supported", USAGE_ERROR)
    return CliOptions(
        app=ns.app,
        input_path=ns.input,
        num_workers=ns.np,
        max_depth=ns.maxd,
        max_nodes=ns.maxnodes,
        scale=ns.scale,
        lmin=ns.lmin,
        lmax=ns.lmax,
        prune=ns.prune,
        count_only=ns.countonly,
        hist_path=ns.hist,
        freq_path=ns.freq,
        checkpoint_path=ns.checkpoint,
        restart_path=ns.restart,
        budget_kind=budget_kind,
        seed=ns.seed,
        restarts=ns.restarts,
        vsids=ns.vsids,
        stop_after=ns.stopafter,
    )


def _cmd_run(opts: CliOptions) -> int:
    try:
        input_bytes = Path(opts.input_path).read_bytes()
    except OSError as exc:
        print(f"btsearch: cannot read input: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if opts.app in _ENUM_APPS:
        app = build_application(opts.app, prune=opts.prune, count_only=opts.count_only)
    else:
        app = build_application(opts.app, restarts=opts.restarts, vsids=opts.vsids)
    config = SchedulerConfig(
        num_workers=opts.num_workers,
        base_max_depth=opts.max_depth,
        base_max_nodes=opts.max_nodes,
        scale=opts.scale,
        lmin=opts.lmin,
        lmax=opts.lmax,
        budget_kind=opts.budget_kind,
        count_only=opts.count_only,
        checkpoint_path=opts.checkpoint_path,
        restart_path=opts.restart_path,
        stop_after_jobs=opts.stop_after,
    )
    try:
        report = run(app, input_bytes, config, out=sys.stdout)
    except (InputFormatError, CheckpointError) as exc:
        print(f"btsearch: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except BtsearchError as exc:
        print(f"btsearch: aborted: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    if opts.freq_path:
        write_frequency_file(report.frequencies, opts.freq_path)
    if opts.hist_path:
        write_histogram_file(report.samples, opts.hist_path)
    print(
        f"btsearch: {report.jobs_executed} jobs, {report.total_output_count} outputs, "
        f"{report.wall_time:.3f}s"
        + ("" if report.completed else " (stopped early, checkpoint written)"),
        file=sys.stderr,
    )
    return 0


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
        write_experiment_csv(result, sys.stdout)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _build_parser().parse_args(argv)
        if ns.command == "run":
            return _cmd_run(parse_cli(argv))
        if ns.command == "gwtree":
            return _cmd_gwtree(ns)
        return _cmd_efficiency(ns)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
