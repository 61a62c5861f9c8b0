"""Command line of btsearch.

usage: btsearch run APP INPUT [flags]     parallel run of a bundled application
       btsearch gwtree [flags]            job-list growth experiment, CSV out
       btsearch efficiency S CORES M      efficiency/speedup arithmetic

`btsearch COMMAND -h` lists every argument of a command.  A flag is taken
only by its full name and always reads the next argument as its value.
Exit codes: 0 success, 1 usage error, 2 input error, 3 internal abort.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from .apps import APPLICATION_NAMES, build_application
from .budget import SchedulerConfig
from .engine import run
from .errors import BtsearchError, CheckpointError, InputFormatError, MetricsError
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
    code = USAGE_ERROR  # main prints the message as one line


def _unbounded_int(text: str) -> int | None:
    return None if text.lower() in ("inf", "none", "unbounded") else int(text)


def _choice(*names: str) -> Callable[[str], str]:
    return {name: name for name in names}.__getitem__  # KeyError for any other word


# Each command's table maps the name of an argument, a flag when it starts
# with '-', to (key, converter, help line).  The key says where the value
# goes: a field of SchedulerConfig or GWExperiment, an app option or a CLI
# setting.  A switch has no converter.  A value not given is left to the
# default of its field, or of the code that reads it.
_COMMANDS: dict[str, dict[str, tuple[str, Callable[[str], Any] | None, str]]] = {
    "run": {
        "app": ("app", _choice(*APPLICATION_NAMES), "one of " + ", ".join(APPLICATION_NAMES)),
        "input": ("input_path", str, "problem input file"),
        "-np": ("num_workers", int, "number of workers"),
        "-maxd": ("base_max_depth", _unbounded_int, "depth budget of a job; inf for none"),
        "-maxnodes": ("base_max_nodes", _unbounded_int, "unit budget of a job; inf for none"),
        "-scale": ("scale", int, "multiplier of -maxnodes while the job list is long"),
        "-lmin": ("lmin", float, "no depth budget from lmin x (np + 2) jobs on"),
        "-lmax": ("lmax", float, "-scale applies above lmax x (np + 2) jobs"),
        "-prune": ("prune", _choice("off", "0", "1"), "0 drops leaf jobs, 1 walks chains"),
        "-countonly": ("count_only", None, "print only the number of outputs"),
        "-hist": ("hist_path", str, "write the job-list time series to this CSV"),
        "-freq": ("freq_path", str, "write the units each job used to this file"),
        "-checkpoint": ("checkpoint_path", str, "checkpoint file"),
        "-restart": ("restart_path", str, "resume from this checkpoint"),
        "-budgetkind": ("budget_kind", str, "unit of -maxnodes: nodes, decisions, conflicts"),
        "-stopafter": ("stop_after_jobs", int, "stop after this many jobs; needs -checkpoint"),
    },
    "gwtree": {
        "-law": ("law", str, "critical offspring law, such as catalan or binomial"),
        "-k": ("k", int, "parameter of the binomial law"),
        "-size": ("target_size", int, "target tree size"),
        "-budget": ("budget", int, "node budget of a job"),
        "-trials": ("trials", int, "number of trees"),
        "-seed": ("seed", int, "random seed, >= 0"),
        "-out": ("out", str, "CSV path; stdout when not given"),
    },
    "efficiency": {
        "single": ("single", float, "single core seconds"),
        "cores": ("cores", int, "number of cores"),
        "multi": ("multi", float, "multicore seconds"),
    },
}


def _parse(command: str, argv: Sequence[str]) -> dict[str, Any]:
    """The values given on one command's line, by key; the last of a repeated flag wins.

    Each word is ``-h`` or ``--help`` (print the table and exit 0), a flag's
    full name, that flag's value, or the next positional argument.  A value
    may start with '-'; a positional may only when it is a number (-inf).
    """
    table = _COMMANDS[command]
    positionals = [name for name in table if not name.startswith("-")]
    values: dict[str, Any] = {}
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            print(_usage(command, table))
            raise SystemExit(0)
        if word.startswith("-") and word in table:
            name, text = word, ("" if table[word][1] is None else next(words, None))
        elif positionals and (not word.startswith("-") or table[positionals[0]][1] in (int, float)):
            name, text = positionals.pop(0), word
        else:
            raise _CliError(f"unrecognized arguments: {word}")
        if text is None:
            raise _CliError(f"{name} needs a value")
        key, convert, _ = table[name]
        try:
            values[key] = True if convert is None else convert(text)
        except (KeyError, ValueError):
            raise _CliError(f"{name}: invalid value {text!r}") from None
    if positionals:
        raise _CliError(f"{command} needs {' '.join(positionals)}")
    return values


def _usage(command: str, table: dict[str, tuple]) -> str:
    words = [name for name in table if not name.startswith("-")]
    flags = ["[flags]"] if len(words) < len(table) else []
    lines = [" ".join(["usage: btsearch", command, *words, *flags])]
    return "\n".join(lines + [f"  {name:<13}{line}" for name, (_, _, line) in table.items()])


def parse_cli(argv: Sequence[str]) -> CliOptions:
    """Parse a ``run`` command line, with or without its leading ``run``.

    Out-of-range values are usage errors that name the flag, and so are
    ``-stopafter`` without ``-checkpoint`` and a flag of another app
    (``-budgetkind`` other than ``nodes`` for the enumeration apps).  Sat
    checks its budget kind when it is built.
    """
    values = _parse("run", argv[1:] if argv and argv[0] == "run" else argv)
    app, input_path = values.pop("app"), values.pop("input_path")
    hist_path, freq_path = values.pop("hist_path", None), values.pop("freq_path", None)
    kind, prune = values.pop("budget_kind", None), values.pop("prune", "off")
    count_only = values.pop("count_only", False)
    if app == "sat":
        if count_only:
            raise _CliError("sat streams its verdict; -countonly is not supported")
        if prune != "off":
            raise _CliError("sat does not prune; -prune is not supported")
        app_options = {} if kind is None else {"budget_kind": kind}
    else:
        if kind not in (None, "nodes"):
            raise _CliError(f"-budgetkind: {app} accepts budget kinds nodes, not {kind!r}")
        app_options = {"prune": prune, "count_only": count_only}
    try:
        config = SchedulerConfig(**values)  # the keys left name its fields
    except ValueError as exc:  # the message names fields; the user typed flags
        flags = {key: name for name, (key, _, _) in _COMMANDS["run"].items()}
        raise _CliError(" ".join(flags.get(word, word) for word in str(exc).split())) from None
    return CliOptions(app, input_path, app_options, hist_path, freq_path, config)


def _cmd_run(opts: CliOptions, transport: type) -> int:
    try:
        input_bytes = Path(opts.input_path).read_bytes()
    except OSError as exc:
        print(f"btsearch: cannot read input: {exc}", file=sys.stderr)
        return INPUT_ERROR
    try:
        app = build_application(opts.app, **opts.app_options)
    except ValueError as exc:  # a budget kind sat does not accept
        print(f"btsearch: -budgetkind: {exc}", file=sys.stderr)
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
    # only these flags load metrics; the run's result stands if a file cannot be written
    if opts.freq_path or opts.hist_path:
        from .metrics import write_frequency_file, write_histogram_file
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


def _cmd_gwtree(values: dict[str, Any]) -> int:
    # Imported here: the CLI loads only the app its command line names.
    # measure_joblist_ratio imports numpy when it runs.
    from .apps.gwtree import GWExperiment, make_law, measure_joblist_ratio, write_experiment_csv

    out = values.pop("out", None)
    try:
        law = make_law(values.pop("law", "catalan"), k=values.pop("k", None))
        result = measure_joblist_ratio(GWExperiment(law, **values))  # the keys left name fields
    except (InputFormatError, ValueError) as exc:
        print(f"btsearch: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if out:
        try:
            with open(out, "w", encoding="ascii") as fh:
                write_experiment_csv(result, fh)
        except OSError as exc:
            print(f"btsearch: cannot write {out}: {exc}", file=sys.stderr)
            return INPUT_ERROR
    else:
        write_experiment_csv(result, sys.stdout)
        sys.stdout.flush()  # before the summary line; main reports a failed write
    print(
        f"btsearch: mean ratio {result.mean_ratio:.6f}, predicted {result.predicted:.6f}",
        file=sys.stderr,
    )
    return 0


def _cmd_efficiency(values: dict[str, Any]) -> int:
    from .metrics import compute_efficiency

    try:
        rec = compute_efficiency(values["single"], values["cores"], values["multi"])
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
    command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        print(__doc__.rstrip())
        raise SystemExit(0)
    try:
        if command == "run":
            return _cmd_run(parse_cli(argv), transport)  # reports its own failed writes
        if command not in _COMMANDS:
            raise _CliError(f"the command is one of {', '.join(_COMMANDS)}")
        values = _parse(command, argv[1:])
    except _CliError as exc:
        print(f"btsearch: {exc}", file=sys.stderr)
        return exc.code
    try:
        code = _cmd_gwtree(values) if command == "gwtree" else _cmd_efficiency(values)
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
