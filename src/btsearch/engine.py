"""Master/worker engine with budget-based load balancing.

One master and N workers share no mutable state: every interaction is a
message, and a job or a shared token is the value its application returned
(a vertex tuple, say), which the engine never looks inside.  The master
is the calling thread, and it is the only writer of the output.
The workers sit behind a transport (``transport.py``) with four
operations: start, send to worker i, wait for the next message from any
worker, and stop.  There are two:

- ``ForkTransport``, for the ``btsearch`` program (``cli.main()`` reading
  ``sys.argv``): one forked process per worker, one pipe each way,
  length-prefixed ``marshal``.  The workers are forked after the master's
  single ``app.init``, so each searches the inherited global data and none
  shares a GIL with another; the master's process runs a single thread.
- ``ThreadTransport``, the default of :func:`run` for library callers: one
  thread per worker, ``queue.SimpleQueue`` channels.  Thread workers still
  call ``app.init`` themselves.  Forking a process that is not btsearch's
  own is unsafe, and a fork costs far more than a thread start.

The protocol has two messages, bare tuples of builtins that ``marshal``
encodes (a class reference would cost about as much to send as the search
of a small job), and two signals:

- an assignment, master to worker: ``(job, max_depth, max_nodes,
  tokens)``, with the shared tokens the worker has not seen yet;
- a result, worker to master, the only message a worker sends for a job:
  ``(worker_id, visited, output_count, unexplored, shared_delta, halt,
  lines)``, its output lines joined into one string;
- ``None`` in an inbox tells its reader to stop (under fork, end of file);
- a ``BtsearchError`` from a worker is the error the master raises:
  ``WorkerCrashError`` from a worker whose job or ``init`` failed (under
  fork it crosses as its text, and the transport rebuilds it).  A worker
  process that dies without a message (SIGKILL, the OOM killer) closes
  its result pipe, and that end of file raises ``WorkerCrashError`` in
  the master at once.

Only a checkpoint holds jobs and tokens as bytes: the app's
``encode_node``/``encode_token`` write them, and a restore reads each one
back once with ``decode_node``/``decode_token``, which check it.

The master waits for results only.  Each pass of its loop assigns a job
to every idle worker, writes the lines of the result it collected (so no
worker waits on a write), takes a ``-hist`` row and a checkpoint if one is
due, and blocks in the transport's receive for the next result.  Between
two results its state does not change, so no timer wakes it.  It grows the
job list from returned unexplored jobs and shrinks it by assignment
until the list is empty and no job is in flight.  Its view of the workers
is a deque of idle worker ids and a map from each busy worker to its job,
so assigning, collecting and the done test never scan the workers.

A halting result is the run's answer: the master writes its lines and
stops at once, abandoning the jobs still in flight, so the verdict is
written once.  The master also owns the output count: in count-only mode
it writes the run's total as a single line.  It flushes ``out`` before
each checkpoint and at the end; a failed write or flush raises
``EngineError`` at once.  A slow reader of ``out`` therefore holds the
master back rather than filling a queue, and ``RunReport.wall_time``,
which ends with the master loop, includes the time its writes block.

Shared data is master-mediated: workers send token deltas with each
result, the master merges them (set semantics, global sequence order) and
forwards to each worker exactly the tokens it has not seen, piggybacked on
the next assignment.
"""

from __future__ import annotations

import time
from collections import deque
from typing import IO, Any, Callable, Sequence

from .budget import Budget, SchedulerConfig, select_budget
from .checkpoint import checkpoint_read, checkpoint_write
from .errors import (
    BtsearchError,
    CheckpointError,
    EngineError,
    NodeDecodeError,
    WorkerCrashError,
)
from .search_api import Application
from .transport import ThreadTransport

_SAMPLE_INTERVAL_S = 0.1
_CHECKPOINT_INTERVAL_S = 30.0


# --------------------------------------------------------------------------
# Shared store
# --------------------------------------------------------------------------


class SharedStore:
    """Master-side table of hashable shared tokens with per-worker delivery.

    Tokens get strictly increasing sequence numbers (list position);
    equal tokens are stored once.  Each worker has a high-water mark so
    each token is delivered to it exactly once.
    """

    def __init__(self, num_workers: int) -> None:
        self._tokens: list[Any] = []
        self._seen: set[Any] = set()
        self._marks = [0] * num_workers

    @property
    def tokens(self) -> tuple[Any, ...]:
        return tuple(self._tokens)

    def merge(self, delta: Sequence[Any]) -> None:
        """Union in the tokens not stored yet."""
        for token in delta:
            if token not in self._seen:
                self._seen.add(token)
                self._tokens.append(token)

    def delta_for(self, worker_id: int) -> tuple[Any, ...]:
        """Tokens newer than the worker has, advancing its mark."""
        mark = self._marks[worker_id]
        delta = tuple(self._tokens[mark:])
        self._marks[worker_id] = len(self._tokens)
        return delta


# --------------------------------------------------------------------------
# Run report
# --------------------------------------------------------------------------


class RunReport:
    """Totals and instrumentation for one engine run."""

    __slots__ = (
        "total_output_count", "wall_time", "frequencies",
        "completed", "halted", "samples", "shared_tokens",
    )

    def __init__(self) -> None:
        self.total_output_count = 0
        self.wall_time = 0.0
        self.frequencies: list[int] = []
        self.completed = True
        self.halted = False
        # (elapsed_seconds, busy_workers, joblist_len) as a wait starts, >= 0.1 s apart
        self.samples: list[tuple[float, int, int]] = []
        # final shared-store contents, for auditing what was relayed
        self.shared_tokens: tuple[Any, ...] = ()

    @property
    def jobs_executed(self) -> int:
        """Results collected: one frequency per job."""
        return len(self.frequencies)


# --------------------------------------------------------------------------
# Worker loop
# --------------------------------------------------------------------------


def worker_loop(
    worker_id: int,
    app: Application,
    load: Callable[[], Any],
    receive: Callable[[], Any],
    send: Callable[[Any], None],
) -> None:
    """Receive assignments, run the application search, send results until
    ``None``.

    ``load()`` returns the global data the searches read.  Each job gets
    one result tuple, which carries its output lines too.  Any exception
    becomes a ``WorkerCrashError`` sent to the master, so the master can
    abort the run instead of waiting forever.
    """
    try:
        global_data = load()
        local_shared: list[Any] = []
        while (msg := receive()) is not None:
            job, max_depth, max_nodes, shared = msg
            local_shared.extend(shared)
            result = app.search(global_data, job, Budget(max_depth, max_nodes), local_shared)
            lines = "\n".join(result.outputs) + "\n" if result.outputs else ""
            send((
                worker_id,
                result.visited,
                result.output_count,
                result.unexplored,
                result.shared_delta,
                result.halt,
                lines,
            ))
    except Exception as exc:  # noqa: BLE001 - sent to the master, which raises it
        crash = WorkerCrashError(
            f"worker {worker_id} crashed ({type(exc).__name__}: {exc}); "
            "its job is lost and the run was aborted"
        )
        crash.__cause__ = exc  # keeps the worker's traceback for thread workers
        send(crash)


# --------------------------------------------------------------------------
# Master
# --------------------------------------------------------------------------


class Master:
    """Job-list owner: assigns budgeted jobs, merges results and shared data.

    Its worker state is the ``idle`` deque of worker ids with no job, and
    ``in_flight``, which maps each busy worker id to its job; every worker
    id is in exactly one of the two.  Kept separate from the transport so
    assignment and collection can be exercised directly.
    """

    def __init__(self, config: SchedulerConfig) -> None:
        self.config = config
        n = config.num_workers
        self.joblist: deque[Any] = deque()
        self.store = SharedStore(n)
        self.idle: deque[int] = deque(range(n))
        self.in_flight: dict[int, Any] = {}
        self.report = RunReport()
        self.halting = False

    def assign_next(self) -> tuple[int, tuple[Any, ...]]:
        """Give the head of the job list to the longest-idle worker.

        Returns that worker's id and the assignment to send it: ``(job,
        max_depth, max_nodes, tokens)``.  The budget is chosen from the
        job-list length before the pop.  The tokens are exactly the shared
        tokens newer than the worker's high-water mark.
        """
        max_depth, max_nodes = select_budget(len(self.joblist), self.config)
        job = self.joblist.popleft()
        worker_id = self.idle.popleft()
        self.in_flight[worker_id] = job
        return worker_id, (job, max_depth, max_nodes, self.store.delta_for(worker_id))

    def collect_result(self, msg: Sequence[Any]) -> str:
        """Merge one worker's result tuple into the job list, store, and report.

        Returns the text for the master to write: the job's lines.
        """
        worker_id, visited, output_count, unexplored, shared_delta, halt, lines = msg
        if worker_id not in self.in_flight:
            raise EngineError(f"result from idle worker {worker_id}")
        if visited < 0 or output_count < 0:
            raise EngineError(f"worker {worker_id}: malformed result counts")
        self.joblist.extend(unexplored)
        self.store.merge(shared_delta)
        del self.in_flight[worker_id]
        self.idle.append(worker_id)
        self.report.frequencies.append(visited)
        self.report.total_output_count += output_count
        if halt:
            self.halting = True
        return lines

    def pending_jobs(self) -> list[Any]:
        """In-flight jobs plus the queued list: everything not yet finished.

        Checkpoints use this so that a crash after the snapshot loses no
        work; a job both in-flight at snapshot time and completed before the
        crash may be re-run on recovery (at-least-once).
        """
        return [*self.in_flight.values(), *self.joblist]


# --------------------------------------------------------------------------
# Top-level run
# --------------------------------------------------------------------------


def run(
    app: Application,
    input_bytes: bytes,
    config: SchedulerConfig,
    out: IO[str] | None = None,
    *,
    transport: type = ThreadTransport,
) -> RunReport:
    """Execute a full parallel run of ``app`` on ``input_bytes``.

    Parses the input and decodes every job and shared token of a restart
    checkpoint, once each, both before any worker starts: CheckpointError
    on one that does not decode, or on a checkpoint that lists no job.
    Every job gets a ``Budget`` of ``max_depth`` and ``max_nodes``; what a
    unit of ``max_nodes`` counts is the app's own setting.  Then starts the
    workers with ``transport`` (``ThreadTransport`` or ``ForkTransport``),
    seeds the job list with the application root or the restored jobs and
    drives the master loop until every job is done, a worker signals a
    global answer, or ``stop_after_jobs`` triggers a checkpointed early
    stop.  This thread
    writes the output lines to ``out`` as results come in and flushes it
    before each checkpoint and at the end; a count-only app
    (``app.count_only``) gets one total line.  A failed write or flush of
    ``out``, a failed checkpoint write, or a worker that cannot be started,
    raises EngineError; a worker that fails or dies raises
    WorkerCrashError.  Every worker is stopped, and every worker process
    reaped, on every way out.
    """
    if out is None:
        import io

        out = io.StringIO()
    global_data, root = app.init(input_bytes)  # may raise InputFormatError

    master = Master(config)
    if config.restart_path is not None:
        jobs, tokens = checkpoint_read(config.restart_path, expected_app=app.name)
        if not jobs:  # the engine checkpoints only while jobs remain
            raise CheckpointError(f"{config.restart_path}: lists no job")

        def decoded(what: str, decode: Callable, items: list[bytes]) -> list[Any]:
            values = []
            for number, item in enumerate(items, start=1):
                try:
                    values.append(decode(item, global_data))
                except NodeDecodeError as exc:
                    raise CheckpointError(f"{config.restart_path}: {what} {number}: {exc}") from exc
            return values

        master.joblist.extend(decoded("job", app.decode_node, jobs))
        master.store.merge(decoded("shared token", app.decode_token, tokens))
    else:
        master.joblist.append(root)

    if transport is ThreadTransport:
        # Thread workers still parse the input themselves: the benchmark's
        # traced self-test counts these calls (np + 1 per run).
        def load() -> Any:
            return app.init(input_bytes)[0]
    else:
        def load() -> Any:
            return global_data

    def work(worker_id: int, receive: Callable, send: Callable) -> None:
        worker_loop(worker_id, app, load, receive, send)

    workers = transport()

    def write_checkpoint_now() -> None:
        if config.checkpoint_path is None:
            return
        _write(out, "", flush=True)  # no job leaves the list before its lines are out
        try:
            checkpoint_write(
                config.checkpoint_path,
                app.name,
                [app.encode_node(job) for job in master.pending_jobs()],
                [app.encode_token(token) for token in master.store.tokens],
            )
        except OSError as exc:
            raise EngineError(f"cannot write the checkpoint ({type(exc).__name__}: {exc})") from exc

    try:
        workers.start(config.num_workers, work)
        start_time = time.monotonic()
        next_sample = start_time
        next_checkpoint = start_time + _CHECKPOINT_INTERVAL_S  # a no-op without a path
        text = ""  # the lines of the last result collected, not yet written
        while True:
            if master.halting:
                break  # the jobs still in flight cannot change the answer
            # Stop assigning once stop_after_jobs results are in; leave when
            # nothing is in flight and the run is stopping or done.
            stopping = (
                config.stop_after_jobs is not None
                and master.report.jobs_executed >= config.stop_after_jobs
            )
            if not stopping:
                while master.idle and master.joblist:
                    workers.send(*master.assign_next())
            if text:  # written once the freed worker has its next job
                _write(out, text)
                text = ""
            if not master.in_flight:
                break

            # the state a wait starts from holds until the next result
            now = time.monotonic()
            if now >= next_sample:
                row = (now - start_time, len(master.in_flight), len(master.joblist))
                master.report.samples.append(row)
                next_sample = now + _SAMPLE_INTERVAL_S
            if now >= next_checkpoint:
                write_checkpoint_now()
                next_checkpoint = now + _CHECKPOINT_INTERVAL_S

            msg = workers.receive()
            if isinstance(msg, BtsearchError):
                raise msg
            text = master.collect_result(msg)

        master.report.wall_time = time.monotonic() - start_time
        master.report.halted = master.halting
        # a run whose last job is also its stop_after_jobs-th is complete
        master.report.completed = master.halting or not master.joblist
        master.report.shared_tokens = master.store.tokens
        if not master.report.completed:
            write_checkpoint_now()
        elif not master.halting:
            final_lines = app.finalize(global_data)
            if final_lines:
                text += "\n".join(final_lines) + "\n"
                master.report.total_output_count += len(final_lines)
        if app.count_only:
            text += f"{master.report.total_output_count}\n"
        _write(out, text, flush=True)  # a halting result's or finalize's lines, then any total
    finally:
        workers.stop()
    return master.report


def _write(out: IO[str], text: str, flush: bool = False) -> None:
    """Write ``text`` to ``out`` and maybe flush it; an ``OSError`` becomes
    ``EngineError``."""
    try:
        if text:
            out.write(text)
        if flush:
            out.flush()
    except OSError as exc:
        raise EngineError(f"cannot write the output ({type(exc).__name__}: {exc})") from exc
