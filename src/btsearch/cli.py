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
from typing import Any, NamedTuple, Sequence

from .apps import APPLICATION_NAMES, build_application
from .budget import SchedulerConfig
from .engine import run
from .errors import BtsearchError, CheckpointError, InputFormatError, MetricsError
from .metrics import compute_efficiency, write_frequency_file, write_histogram_file
from .transport import ForkTransport, ThreadTransport

USAGE_ERROR = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3

class CliOptions(NamedTuple):
    """Parsed options for a ``run`` invocation: the engine config plus CLI-only settings."""

    app: str
    input_path: str
    # keyword arguments of build_application: prune and count_only for the
    # enumeration apps; budget_kind for sat, when -budgetkind is given
    app_options: dict[str, Any]
    hist_path: str | None
    freq_path: str | None
    config: SchedulerConfig


class _CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _CliError(f"{self.prog}: {message}", USAGE_ERROR)

    def _get_option_tuples(self, option_string: str) -> list:
        # argparse takes a unique prefix of a flag (-restar) or a flag glued
        # to its value (-k7) as that flag, and allow_abbrev=False stops only
        # the prefixes of -- flags; every flag here has one dash.  With no
        # candidates, anything but a flag's full name is unrecognized.
        return []


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
        help="unit of -maxnodes: nodes for the enumeration apps; decisions (default) "
        "or conflicts for sat",
    )
    runp.add_argument(
        "-stopafter", type=int, default=None,
        help="checkpoint and stop after this many jobs (migration; needs -checkpoint)",
    )

    gwp = sub.add_parser("gwtree", help="job-list growth experiment (CSV)")
    gwp.add_argument("-law", default="catalan")
    gwp.add_argument("-k", type=int, default=None, help="parameter of the binomial law")
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

    Out-of-range values are usage errors, and so are ``-stopafter`` without
    ``-checkpoint`` and a flag of another app (``-budgetkind`` other than
    ``nodes`` for the enumeration apps).  Sat checks its budget kind when
    it is built.
    """
    ns = _build_parser().parse_args(["run", *argv] if argv and argv[0] not in ("run",) else argv)
    if ns.command != "run":
        raise _CliError("parse_cli handles 'run' invocations", USAGE_ERROR)
    return _run_options(ns)


def _run_options(ns: argparse.Namespace) -> CliOptions:
    """The options of a parsed ``run`` command line; see :func:`parse_cli`."""
    if ns.app == "sat":
        if ns.countonly:
            raise _CliError(
                "btsearch: sat streams its verdict; -countonly is not supported", USAGE_ERROR
            )
        if ns.prune != "off":
            raise _CliError("btsearch: sat does not prune; -prune is not supported", USAGE_ERROR)
        app_options = {} if ns.budgetkind is None else {"budget_kind": ns.budgetkind}
    else:
        if ns.budgetkind not in (None, "nodes"):
            raise _CliError(
                f"btsearch: {ns.app} accepts budget kinds nodes, not {ns.budgetkind!r}", USAGE_ERROR
            )
        app_options = {"prune": ns.prune, "count_only": ns.countonly}
    try:
        config = SchedulerConfig(
            num_workers=ns.np,
            base_max_depth=ns.maxd,
            base_max_nodes=ns.maxnodes,
            scale=ns.scale,
            lmin=ns.lmin,
            lmax=ns.lmax,
            checkpoint_path=ns.checkpoint,
            restart_path=ns.restart,
            stop_after_jobs=ns.stopafter,
        )
    except ValueError as exc:
        raise _CliError(f"btsearch: {exc}", USAGE_ERROR) from None
    return CliOptions(
        app=ns.app,
        input_path=ns.input,
        app_options=app_options,
        hist_path=ns.hist,
        freq_path=ns.freq,
        config=config,
    )


def _cmd_run(opts: CliOptions, transport: type) -> int:
    try:
        input_bytes = Path(opts.input_path).read_bytes()
    except OSError as exc:
        print(f"btsearch: cannot read input: {exc}", file=sys.stderr)
        return INPUT_ERROR
    try:
        app = build_application(opts.app, **opts.app_options)
    except ValueError as exc:  # a budget kind sat does not accept
        print(f"btsearch: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        report = run(app, input_bytes, opts.config, out=sys.stdout, transport=transport)
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
    # Imported here: the CLI loads only the app its command line names.
    # measure_joblist_ratio imports numpy when it runs.
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
        sys.stdout.flush()  # before the summary line; main reports a failed write
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
    if argv[:1] == ["efficiency"] and not {"-h", "--help", "--"} & set(argv):
        argv.insert(1, "--")  # else argparse reads a time of -inf as a flag
    try:
        ns = _build_parser().parse_args(argv)
        if ns.command == "run":
            return _cmd_run(_run_options(ns), transport)  # reports its own failed writes
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    try:
        code = _cmd_gwtree(ns) if ns.command == "gwtree" else _cmd_efficiency(ns)
        sys.stdout.flush()  # a buffered write fails only here
    except OSError as exc:
        print(
            f"btsearch: aborted: cannot write the output ({type(exc).__name__}: {exc})",
            file=sys.stderr,
        )
        _drop_unwritable_stdout()
        return INTERNAL_ERROR
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
