"""Traced in-process run: per-layer counts and times from the layer boundaries.

The benchmark runs the same ``btsearch run`` invocations as the end-to-end
mode, but in this process through ``btsearch.cli.main``, with thin timing
proxies around the public calls into each layer:

- ``Application`` methods (``init``, ``search``, ``encode_node``,
  ``decode_node``, ``format_vertex``, ``oracle_for``), by building the app
  as a subclass with a tracing mixin;
- the ``AdjacencyOracle`` returned by ``oracle_for`` (``adjacent``,
  ``parent``);
- the output stream the consumer writes to (``sys.stdout`` of the run);
- ``checkpoint_write`` / ``checkpoint_read`` as the engine calls them.

The proxies are installed for the duration of one run and removed after it;
nothing under ``src/`` changes.  Untraced runs of the same invocations
alternate with the traced ones, and their ratio is ``trace.overhead_frac``.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import threading
import time
from dataclasses import dataclass

from btsearch import cli, engine
from btsearch.reverse_search import AdjacencyOracle

perf = time.perf_counter

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("engine.jobs", "count", "lower"),
    ("engine.jobs_per_s", "1/s", "higher"),
    ("engine.busy_frac", "ratio", "higher"),
    ("engine.search_us_p50", "us", "lower"),
    ("engine.gap_us_p50", "us", "lower"),
    ("engine.gap_us_p99", "us", "lower"),
    ("budget.jobs_depth_limited", "count", "lower"),
    ("budget.jobs_base", "count", "lower"),
    ("budget.jobs_scaled", "count", "lower"),
    ("budget.splits_per_job", "count", "lower"),
    ("budget.units_per_job_p50", "count", "higher"),
    ("oracle.adjacent_calls", "count", "lower"),
    ("oracle.parent_calls", "count", "lower"),
    ("oracle.adjacent_us", "us", "lower"),
    ("oracle.parent_us", "us", "lower"),
    ("oracle.calls_per_node", "count", "lower"),
    ("oracle.child_hit_ratio", "ratio", "higher"),
    ("oracle.share_of_search", "ratio", "lower"),
    ("codec.encode_us", "us", "lower"),
    ("codec.decode_us", "us", "lower"),
    ("codec.payload_bytes", "bytes", "lower"),
    ("apps.format_us", "us", "lower"),
    ("consumer.lines", "count", "higher"),
    ("consumer.bytes", "bytes", "lower"),
    ("consumer.write_s", "s", "lower"),
    ("checkpoint.write_s", "s", "lower"),
    ("checkpoint.read_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.jobs", "count", "lower"),
    ("sat.conflicts", "count", "lower"),
    ("sat.conflicts_per_s", "1/s", "higher"),
    ("sat.search_ms_p50", "ms", "lower"),
    ("sat.search_ms_p99", "ms", "lower"),
    ("sat.shared_tokens", "count", "higher"),
    ("sat.tokens_delivered", "count", "higher"),
    ("app.init_calls", "count", "lower"),
    ("app.init_s", "s", "lower"),
    ("gwtree.sample_s", "s", "lower"),
    ("gwtree.sizes_s", "s", "lower"),
    ("gwtree.oracle_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class _Counters:
    """Per-thread sums; only the owning thread writes them."""

    __slots__ = (
        "adj_calls", "adj_s", "par_calls", "par_s", "hits",
        "enc_calls", "enc_s", "enc_bytes", "dec_calls", "dec_s",
        "fmt_calls", "fmt_s", "init_calls", "init_s",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


@dataclass(frozen=True)
class Span:
    """One ``search`` call as a worker made it."""

    run: int
    thread: int
    start: float
    end: float
    max_depth: int | None
    max_nodes: int | None
    visited: int
    splits: int
    shared: tuple
    produced: tuple


class Recorder:
    """Everything one traced invocation set records, merged after the run."""

    def __init__(self) -> None:
        self.run = 0
        self.spans: list[Span] = []
        self._local = threading.local()
        self._all: list[_Counters] = []
        self._lock = threading.Lock()
        self.stream_lines = 0
        self.stream_bytes = 0
        self.stream_s = 0.0
        self.ckpt_write_s = 0.0
        self.ckpt_read_s = 0.0
        self.ckpt_bytes = 0
        self.ckpt_jobs = 0

    def counters(self) -> _Counters:
        c = getattr(self._local, "c", None)
        if c is None:
            c = self._local.c = _Counters()
            with self._lock:
                self._all.append(c)
        return c

    def total(self, name: str) -> float:
        return sum(getattr(c, name) for c in self._all)


class TracedOracle(AdjacencyOracle):
    """Times ``adjacent``/``parent`` and counts tree children found.

    A hit is a ``parent(w)`` call that returns ``(v, j)`` for the ``w`` the
    preceding ``adjacent(v, j)`` produced: the reverse-search child test.
    """

    def __init__(self, inner: AdjacencyOracle, counters: _Counters) -> None:
        self._inner = inner
        self._c = counters
        self._last: tuple | None = None
        self.max_degree = inner.max_degree

    def root(self):
        return self._inner.root()

    def adjacent(self, vertex, j):
        start = perf()
        w = self._inner.adjacent(vertex, j)
        c = self._c
        c.adj_s += perf() - start
        c.adj_calls += 1
        self._last = (w, vertex, j)
        return w

    def parent(self, vertex):
        start = perf()
        p = self._inner.parent(vertex)
        c = self._c
        c.par_s += perf() - start
        c.par_calls += 1
        last = self._last
        if last is not None and last[0] is vertex and p is not None and p[1] == last[2] and p[0] == last[1]:
            c.hits += 1
        self._last = None
        return p


class _TracingMixin:
    """Placed before an Application class: times each call, then delegates."""

    _recorder: Recorder

    def init(self, input_bytes):
        start = perf()
        out = super().init(input_bytes)
        c = self._recorder.counters()
        c.init_s += perf() - start
        c.init_calls += 1
        return out

    def search(self, global_data, node, budget, shared):
        rec = self._recorder
        start = perf()
        result = super().search(global_data, node, budget, shared)
        end = perf()
        rec.spans.append(
            Span(
                run=rec.run,
                thread=threading.get_ident(),
                start=start,
                end=end,
                max_depth=budget.max_depth,
                max_nodes=budget.max_nodes,
                visited=result.visited,
                splits=len(result.unexplored),
                shared=tuple(shared),
                produced=tuple(result.shared_delta),
            )
        )
        return result

    def oracle_for(self, global_data):
        return TracedOracle(super().oracle_for(global_data), self._recorder.counters())

    def encode_node(self, vertex):
        start = perf()
        payload = super().encode_node(vertex)
        c = self._recorder.counters()
        c.enc_s += perf() - start
        c.enc_calls += 1
        c.enc_bytes += len(payload)
        return payload

    def decode_node(self, payload, global_data):
        start = perf()
        vertex = super().decode_node(payload, global_data)
        c = self._recorder.counters()
        c.dec_s += perf() - start
        c.dec_calls += 1
        return vertex

    def format_vertex(self, global_data, vertex):
        start = perf()
        line = super().format_vertex(global_data, vertex)
        c = self._recorder.counters()
        c.fmt_s += perf() - start
        c.fmt_calls += 1
        return line


class TimedStream:
    """The consumer's output stream: counts lines and bytes, times writes."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._rec = recorder

    def write(self, text: str) -> int:
        start = perf()
        n = self._inner.write(text)
        rec = self._rec
        rec.stream_s += perf() - start
        rec.stream_lines += text.count("\n")
        rec.stream_bytes += len(text)
        return n

    def flush(self) -> None:
        start = perf()
        self._inner.flush()
        self._rec.stream_s += perf() - start


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install the proxies for one run; always restore the originals."""
    real_build = cli.build_application
    real_write, real_read = engine.checkpoint_write, engine.checkpoint_read
    classes: dict[type, type] = {}

    def build(name, **options):
        cls = type(real_build(name, **options))
        if cls not in classes:
            classes[cls] = type(f"Traced{cls.__name__}", (_TracingMixin, cls), {"_recorder": recorder})
        return classes[cls](**options)

    def checkpoint_write(path, app_name, jobs, shared_tokens=()):
        jobs = list(jobs)
        start = perf()
        real_write(path, app_name, jobs, shared_tokens)
        recorder.ckpt_write_s += perf() - start
        recorder.ckpt_bytes += os.path.getsize(path)
        recorder.ckpt_jobs += len(jobs)

    def checkpoint_read(path, expected_app=None):
        start = perf()
        out = real_read(path, expected_app)
        recorder.ckpt_read_s += perf() - start
        return out

    cli.build_application = build
    engine.checkpoint_write, engine.checkpoint_read = checkpoint_write, checkpoint_read
    try:
        yield
    finally:
        cli.build_application = real_build
        engine.checkpoint_write, engine.checkpoint_read = real_write, real_read


def run_in_process(prepared, np: int, recorder: Recorder | None, workdir) -> tuple[float, list[str]]:
    """All invocations of every case through ``cli.main``; returns (seconds, problems)."""
    elapsed = 0.0
    problems: list[str] = []
    for case in prepared.cases:
        outputs = []
        for flags in case.invocations:
            out_path = workdir / "stdout.txt"
            argv = ["run", prepared.app, str(case.input_path), *flags, "-np", str(np)]
            with open(out_path, "w") as out, contextlib.redirect_stderr(io.StringIO()):
                stream = out if recorder is None else TimedStream(out, recorder)
                with contextlib.redirect_stdout(stream), (
                    traced(recorder) if recorder is not None else contextlib.nullcontext()
                ):
                    start = perf()
                    code = cli.main(argv)
                    elapsed += perf() - start
            if recorder is not None:
                recorder.run += 1
            if code != 0:
                problems.append(f"{case.input_path.name}: exit code {code} for flags {flags}")
            outputs.append(out_path.read_text())
        if not problems:
            problems = case.check(outputs)
    return elapsed, problems


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99); a lone value stands for every percentile."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def delivery_problems(spans: list[Span]) -> list[str]:
    """Check exactly-once token delivery from what each worker was handed.

    A worker's ``shared`` argument must only grow by appending tokens it
    has not seen, and every delivered token must have been produced.
    """
    produced = {tok for s in spans for tok in s.produced}
    last: dict[tuple[int, int], tuple] = {}
    for s in sorted(spans, key=lambda s: s.start):
        key = (s.run, s.thread)
        before = last.get(key, ())
        if s.shared[: len(before)] != before:
            return [f"worker {key} lost or reordered shared tokens"]
        if len(set(s.shared)) != len(s.shared):
            return [f"worker {key} received a shared token twice"]
        if not set(s.shared) <= produced:
            return [f"worker {key} received a token no worker produced"]
        last[key] = s.shared
    return []


def layer_metrics(rec: Recorder, prepared, np: int, run_s: float) -> dict[str, float]:
    spans = rec.spans
    search_s = [s.end - s.start for s in spans]
    busy = sum(search_s)
    gaps = []
    by_worker: dict[tuple[int, int], list[Span]] = {}
    for s in spans:
        by_worker.setdefault((s.run, s.thread), []).append(s)
    for worker in by_worker.values():
        worker.sort(key=lambda s: s.start)
        gaps += [(b.start - a.end) * 1e6 for a, b in zip(worker, worker[1:])]
    nodes = sum(s.visited for s in spans)
    adj, par = rec.total("adj_calls"), rec.total("par_calls")
    oracle_s = rec.total("adj_s") + rec.total("par_s")
    depth_limited = sum(1 for s in spans if s.max_depth is not None)
    base = sum(1 for s in spans if s.max_depth is None and s.max_nodes == prepared.base_max_nodes)
    is_sat = prepared.app == "sat"
    conflicts = nodes if is_sat else 0
    return {
        "engine.jobs": len(spans),
        "engine.jobs_per_s": _mean(len(spans), run_s),
        "engine.busy_frac": _mean(busy, np * run_s),
        "engine.search_us_p50": _quantile(search_s, 50) * 1e6,
        "engine.gap_us_p50": _quantile(gaps, 50),
        "engine.gap_us_p99": _quantile(gaps, 99),
        "budget.jobs_depth_limited": depth_limited,
        "budget.jobs_base": base,
        "budget.jobs_scaled": len(spans) - depth_limited - base,
        "budget.splits_per_job": _mean(sum(s.splits for s in spans), len(spans)),
        "budget.units_per_job_p50": _quantile([s.visited for s in spans], 50),
        "oracle.adjacent_calls": adj,
        "oracle.parent_calls": par,
        "oracle.adjacent_us": _mean(rec.total("adj_s"), adj) * 1e6,
        "oracle.parent_us": _mean(rec.total("par_s"), par) * 1e6,
        "oracle.calls_per_node": _mean(adj + par, nodes),
        "oracle.child_hit_ratio": _mean(rec.total("hits"), adj),
        "oracle.share_of_search": _mean(oracle_s, busy),
        "codec.encode_us": _mean(rec.total("enc_s"), rec.total("enc_calls")) * 1e6,
        "codec.decode_us": _mean(rec.total("dec_s"), rec.total("dec_calls")) * 1e6,
        "codec.payload_bytes": rec.total("enc_bytes"),
        "apps.format_us": _mean(rec.total("fmt_s"), rec.total("fmt_calls")) * 1e6,
        "consumer.lines": rec.stream_lines,
        "consumer.bytes": rec.stream_bytes,
        "consumer.write_s": rec.stream_s,
        "checkpoint.write_s": rec.ckpt_write_s,
        "checkpoint.read_s": rec.ckpt_read_s,
        "checkpoint.bytes": rec.ckpt_bytes,
        "checkpoint.jobs": rec.ckpt_jobs,
        "sat.conflicts": conflicts,
        "sat.conflicts_per_s": _mean(conflicts, busy),
        "sat.search_ms_p50": _quantile(search_s, 50) * 1e3 if is_sat else 0.0,
        "sat.search_ms_p99": _quantile(search_s, 99) * 1e3 if is_sat else 0.0,
        "sat.shared_tokens": len({tok for s in spans for tok in s.produced}),
        "sat.tokens_delivered": sum(max(len(s.shared) for s in w) for w in by_worker.values()),
        "app.init_calls": rec.total("init_calls"),
        "app.init_s": rec.total("init_s"),
    }


def gwtree_pieces(prepared, rounds: int = 5) -> dict[str, float]:
    """Median times of the three steps of gwtree's ``init``, called directly."""
    if prepared.app != "gwtree":
        return {"gwtree.sample_s": 0.0, "gwtree.sizes_s": 0.0, "gwtree.oracle_s": 0.0}
    from btsearch.apps.gwtree import GWTreeOracle, make_law, sample_offspring_sequence, subtree_sizes

    law_name, lo, hi, seed = prepared.cases[0].input_path.read_text().split()
    law = make_law(law_name)
    times: dict[str, list[float]] = {"gwtree.sample_s": [], "gwtree.sizes_s": [], "gwtree.oracle_s": []}
    for _ in range(rounds):
        t0 = perf()
        xi = sample_offspring_sequence(law, int(lo), int(hi), rng=int(seed))
        t1 = perf()
        sizes = subtree_sizes(xi)
        t2 = perf()
        GWTreeOracle(sizes)
        t3 = perf()
        times["gwtree.sample_s"].append(t1 - t0)
        times["gwtree.sizes_s"].append(t2 - t1)
        times["gwtree.oracle_s"].append(t3 - t2)
    return {name: statistics.median(values) for name, values in times.items()}


def measure_layers(prepared, seconds: float, np: int, tally, min_reps: int = 3) -> dict:
    """Alternate untraced and traced in-process runs for ``seconds``.

    Each per-layer value is the median over the traced runs; run outcomes
    go into ``tally``.
    """
    workdir = prepared.cases[0].input_path.parent
    plain_s: list[float] = []
    traced_s: list[float] = []
    per_run: list[dict[str, float]] = []
    begin = perf()
    while len(per_run) < min_reps or perf() - begin < seconds:
        elapsed, problems = run_in_process(prepared, np, None, workdir)
        plain_s.append(elapsed)
        tally.record(problems)
        rec = Recorder()
        elapsed, problems = run_in_process(prepared, np, rec, workdir)
        traced_s.append(elapsed)
        tally.record(problems or delivery_problems(rec.spans))
        per_run.append(layer_metrics(rec, prepared, np, elapsed))
    values = {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
    values.update(gwtree_pieces(prepared))
    values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {name: (values[name], units[name]) for name, _, _ in LAYER_METRICS}
