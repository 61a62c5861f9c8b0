"""Master/worker/consumer engine with budget-based load balancing.

One master, one consumer, and N workers share no mutable state: every
interaction is a message, and a job is just the payload bytes its
application encoded.  The master and the consumer are threads of the
calling process.  The workers sit behind a transport (``transport.py``)
with four operations: start, send to worker i, receive with a timeout,
and stop.  There are two:

- ``ForkTransport``, for the ``btsearch`` program (``cli.main()`` reading
  ``sys.argv``): one forked process per worker, one pipe each way,
  length-prefixed ``pickle``.  The workers are forked after the master's
  single ``app.init`` and before the consumer thread starts, so each
  searches the inherited global data and none shares a GIL with another.
- ``ThreadTransport``, the default of :func:`run` for library callers: one
  thread per worker, ``queue.SimpleQueue`` channels.  Thread workers still
  call ``app.init`` themselves.  Forking a process that is not btsearch's
  own is unsafe, and a fork costs far more than a thread start.

The protocol has three message types and two signals:

- ``AssignMsg``, master to worker: a job, its budget and the shared tokens
  the worker has not seen yet;
- ``ResultMsg``, worker to master, the only message a worker sends for a
  job: its counts, its unexplored payloads, its new shared tokens and its
  output lines joined into one string;
- ``OutputMsg``, master to consumer: text to write.  The master forwards a
  job's lines when it collects the result.  A halting result is the run's
  answer: the master stops at once and abandons the jobs still in flight,
  so the verdict is written once;
- ``None`` in an inbox tells its reader to stop (under fork, end of file);
- a ``BtsearchError`` from a worker is the error the master raises:
  ``WorkerCrashError`` from a worker whose job or ``init`` failed.  A
  worker process that dies without a message (SIGKILL, the OOM killer)
  closes its result pipe, and that end of file raises ``WorkerCrashError``
  in the master at once.  A consumer that cannot write leaves an
  ``EngineError`` that the master raises after its next receive.

Assignments and results cross the transport as plain tuples of builtins
(an ``AssignMsg`` with its budget's fields, a ``ResultMsg``'s fields):
pickling a class reference costs about as much as the search of a small
job.

The master blocks in the transport's receive until a result arrives or the
next ``-hist`` sample tick or checkpoint deadline passes.  It grows the job
list from returned unexplored payloads and shrinks it by assignment, one
assignment per freed worker, until the list is empty and no job is in
flight.  Its view of the workers is a deque of idle worker ids and a map
from each busy worker to its job, so assigning, collecting and the done
test never scan the workers.  The master also owns the output count: in
count-only mode it sends the consumer the run's total as a single line.

Shared data is master-mediated: workers send opaque token deltas with each
result, the master merges them (set semantics, global sequence order) and
forwards to each worker exactly the tokens it has not seen, piggybacked on
the next assignment.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from typing import IO, Any, Callable, NamedTuple, Sequence

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
# Messages
# --------------------------------------------------------------------------


class AssignMsg(NamedTuple):
    payload: bytes
    budget: Budget
    shared: tuple[bytes, ...]


class ResultMsg(NamedTuple):
    worker_id: int
    visited: int
    output_count: int
    unexplored: tuple[bytes, ...]
    shared_delta: tuple[bytes, ...]
    halt: bool
    # the job's output lines, each ended by a newline
    lines: str = ""


class OutputMsg(NamedTuple):
    text: str


# --------------------------------------------------------------------------
# Shared store
# --------------------------------------------------------------------------


class SharedStore:
    """Master-side table of opaque shared tokens with per-worker delivery.

    Tokens get strictly increasing sequence numbers (list position);
    duplicates are stored once.  Each worker has a high-water mark so each
    token is delivered to it exactly once.
    """

    def __init__(self, num_workers: int) -> None:
        self._tokens: list[bytes] = []
        self._seen: set[bytes] = set()
        self._marks = [0] * num_workers

    @property
    def tokens(self) -> tuple[bytes, ...]:
        return tuple(self._tokens)

    def merge(self, delta: Sequence[bytes]) -> int:
        """Union in new tokens; returns how many were actually new."""
        added = 0
        for token in delta:
            if token not in self._seen:
                self._seen.add(token)
                self._tokens.append(token)
                added += 1
        return added

    def delta_for(self, worker_id: int) -> tuple[bytes, ...]:
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
        "total_output_count", "jobs_executed", "wall_time", "frequencies",
        "completed", "halted", "samples", "shared_tokens",
    )

    def __init__(self) -> None:
        self.total_output_count = 0
        self.jobs_executed = 0
        self.wall_time = 0.0
        self.frequencies: list[int] = []
        self.completed = True
        self.halted = False
        # (elapsed_seconds, busy_workers, joblist_len) sampled at >= 0.1 s ticks
        self.samples: list[tuple[float, int, int]] = []
        # final shared-store contents, for auditing what was relayed
        self.shared_tokens: tuple[bytes, ...] = ()


# --------------------------------------------------------------------------
# Worker and consumer loops
# --------------------------------------------------------------------------


def worker_loop(
    worker_id: int,
    app: Application,
    load: Callable[[], Any],
    receive: Callable[[], AssignMsg | None],
    send: Callable[[Any], None],
) -> None:
    """Receive jobs, run the application search, send results until ``None``.

    ``load()`` returns the global data the searches read.  Each job gets
    one ``ResultMsg``, sent as a plain tuple, that carries its output lines
    too.  Any exception becomes a ``WorkerCrashError`` sent to the master,
    so the master can abort the run instead of waiting forever.
    """
    try:
        global_data = load()
        local_shared: list[bytes] = []
        while (msg := receive()) is not None:
            payload, budget, shared = msg  # an AssignMsg, its budget maybe a plain tuple
            local_shared.extend(shared)
            result = app.search(global_data, payload, Budget(*budget), tuple(local_shared))
            lines = "\n".join(result.outputs) + "\n" if result.outputs else ""
            send((  # the fields of a ResultMsg
                worker_id,
                result.visited,
                result.output_count,
                tuple(result.unexplored),
                tuple(result.shared_delta),
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


def consumer_loop(inbox: queue.SimpleQueue, out: IO[str], failed: list[EngineError]) -> None:
    """Write output text verbatim in arrival order until ``None``.

    A failed write or flush (``OSError``) is appended to ``failed`` as an
    ``EngineError``, which the master raises, and ends the loop: no later
    line is written.
    """
    try:
        while (msg := inbox.get()) is not None:
            out.write(msg.text)
        out.flush()
    except OSError as exc:
        failed.append(EngineError(f"cannot write the output ({type(exc).__name__}: {exc})"))


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
        self.joblist: deque[bytes] = deque()
        self.store = SharedStore(n)
        self.idle: deque[int] = deque(range(n))
        self.in_flight: dict[int, bytes] = {}
        self.report = RunReport()
        self.halting = False

    def assign_next(self) -> tuple[int, AssignMsg]:
        """Give the head of the job list to the longest-idle worker.

        Returns that worker's id and the message to send it.  The budget is
        chosen from the job-list length before the pop.  The message carries
        exactly the shared tokens newer than the worker's high-water mark.
        """
        budget = select_budget(len(self.joblist), self.config)
        job = self.joblist.popleft()
        worker_id = self.idle.popleft()
        self.in_flight[worker_id] = job
        return worker_id, AssignMsg(payload=job, budget=budget, shared=self.store.delta_for(worker_id))

    def collect_result(self, msg: Sequence[Any]) -> str:
        """Merge one worker result (a ``ResultMsg`` or its plain tuple) into
        the job list, store, and report.

        Returns the text to forward to the consumer: the job's lines.
        """
        worker_id, visited, output_count, unexplored, shared_delta, halt, lines = msg
        if worker_id not in self.in_flight:
            raise EngineError(f"result from idle worker {worker_id}")
        if visited < 0 or output_count < 0:
            raise EngineError(f"worker {worker_id}: malformed result counts")
        for payload in unexplored:
            if not isinstance(payload, bytes):
                raise EngineError(f"worker {worker_id}: malformed unexplored payload")
            self.joblist.append(payload)
        self.store.merge(shared_delta)
        del self.in_flight[worker_id]
        self.idle.append(worker_id)
        self.report.jobs_executed += 1
        self.report.frequencies.append(visited)
        self.report.total_output_count += output_count
        if halt:
            self.halting = True
        return lines

    def pending_jobs(self) -> list[bytes]:
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

    Resolves the budget kind with ``app.resolve_budget_kind`` (BudgetKindError
    on a kind the app does not accept), parses the input and decodes every job and
    shared token of a restart checkpoint (CheckpointError on one that does
    not decode), all before any worker starts.  Then starts the workers
    with ``transport`` (``ThreadTransport`` or ``ForkTransport``), seeds the
    job list with the application root or the restored jobs and drives the
    master loop until every job is done, a worker signals a global answer,
    or ``stop_after_jobs`` triggers a checkpointed early stop.  Output lines
    stream to ``out`` via the consumer; a count-only app (``app.count_only``)
    gets one total line.  A failed write to ``out`` or to the checkpoint,
    or a worker that cannot be started, raises EngineError; a worker that
    fails or dies raises WorkerCrashError.  Every worker is stopped, and
    every worker process reaped, on every way out.
    """
    config = config._replace(budget_kind=app.resolve_budget_kind(config.budget_kind))
    if out is None:
        import io

        out = io.StringIO()
    global_data, root = app.init(input_bytes)  # may raise InputFormatError

    master = Master(config)
    if config.restart_path is not None:
        jobs, tokens = checkpoint_read(config.restart_path, expected_app=app.name)
        checks = (("job", app.decode_node, jobs), ("shared token", app.decode_token, tokens))
        for what, decode, items in checks:
            for number, item in enumerate(items, start=1):
                try:
                    decode(item, global_data)
                except NodeDecodeError as exc:
                    raise CheckpointError(f"{config.restart_path}: {what} {number}: {exc}") from exc
        master.joblist.extend(jobs)
        master.store.merge(tokens)
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
    consumer_inbox: queue.SimpleQueue = queue.SimpleQueue()
    consumer_failed: list[EngineError] = []
    consumer = threading.Thread(
        target=consumer_loop,
        args=(consumer_inbox, out, consumer_failed),
        name="btsearch-consumer",
        daemon=True,
    )

    def write_checkpoint_now() -> None:
        if config.checkpoint_path is None:
            return
        try:
            checkpoint_write(
                config.checkpoint_path,
                app.name,
                master.pending_jobs(),
                master.store.tokens,
            )
        except OSError as exc:
            raise EngineError(f"cannot write the checkpoint ({type(exc).__name__}: {exc})") from exc

    try:
        workers.start(config.num_workers, work)  # forks before any thread of ours starts
        consumer.start()
        start_time = time.monotonic()
        next_sample = start_time
        next_checkpoint = (
            start_time + _CHECKPOINT_INTERVAL_S if config.checkpoint_path is not None else math.inf
        )
        while True:
            now = time.monotonic()
            if now >= next_sample:
                elapsed = now - start_time
                master.report.samples.append((elapsed, len(master.in_flight), len(master.joblist)))
                next_sample = now + _SAMPLE_INTERVAL_S
            if now >= next_checkpoint:
                write_checkpoint_now()
                next_checkpoint = now + _CHECKPOINT_INTERVAL_S

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
                    worker_id, assign = master.assign_next()
                    workers.send(worker_id, (assign.payload, tuple(assign.budget), assign.shared))
            if not master.in_flight:
                break

            msg = workers.receive(min(next_sample, next_checkpoint) - now)
            if consumer_failed:
                raise consumer_failed[0]
            if isinstance(msg, BtsearchError):
                raise msg
            if msg is not None:
                text = master.collect_result(msg)
                if text:
                    consumer_inbox.put(OutputMsg(text))

        master.report.wall_time = now - start_time
        master.report.halted = master.halting
        # a run whose last job is also its stop_after_jobs-th is complete
        master.report.completed = master.halting or not master.joblist
        master.report.shared_tokens = master.store.tokens
        if not master.report.completed:
            write_checkpoint_now()
        elif not master.halting:
            final_lines = app.finalize(global_data)
            if final_lines:
                consumer_inbox.put(OutputMsg("\n".join(final_lines) + "\n"))
        if app.count_only:
            consumer_inbox.put(OutputMsg(f"{master.report.total_output_count}\n"))
    finally:
        workers.stop()
        if consumer.is_alive():
            consumer_inbox.put(None)
            consumer.join(timeout=30.0)
    # the consumer writes the last lines after the loop ends
    if consumer_failed:
        raise consumer_failed[0]
    return master.report
