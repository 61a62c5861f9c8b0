"""Master/worker/consumer engine with budget-based load balancing.

One master, one consumer, and N workers run as isolated execution contexts
(threads here) that share no mutable state: every interaction travels over
FIFO channels, and a job is just the payload bytes its application encoded.
The protocol has three message types and two signals:

- ``AssignMsg``, master to worker: a job, its budget and the shared tokens
  the worker has not seen yet;
- ``ResultMsg``, worker to master: the job's counts, its unexplored
  payloads and its new shared tokens;
- ``OutputMsg``, worker or master to consumer: lines to write;
- ``None`` in any inbox tells its reader to stop;
- a ``BtsearchError`` on the master's result queue is the error the master
  raises: ``WorkerCrashError`` from a worker whose job or ``init`` failed,
  ``EngineError`` from a consumer that cannot write the output.

Workers block on their own inbox and all put their results on one shared
queue; the master polls that queue non-blockingly, growing the job list
from returned unexplored payloads and shrinking it by assignment until the
list is empty and no job is in flight.  The master's view of the workers is
a deque of idle worker ids and a map from each busy worker to its job, so
assigning, collecting and the done test never scan the workers.  The
master also owns the output count: in count-only mode it sends the
consumer the run's total as a single line.

Shared data is master-mediated: workers send opaque token deltas with each
result, the master merges them (set semantics, global sequence order) and
forwards to each worker exactly the tokens it has not seen, piggybacked on
the next assignment.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import IO, Sequence

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

logger = logging.getLogger("btsearch")

_IDLE_SLEEP_S = 0.0002
_SAMPLE_INTERVAL_S = 0.1
_CHECKPOINT_INTERVAL_S = 30.0


# --------------------------------------------------------------------------
# Messages
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AssignMsg:
    payload: bytes
    budget: Budget
    shared: tuple[bytes, ...]


@dataclass(frozen=True)
class ResultMsg:
    worker_id: int
    visited: int
    output_count: int
    unexplored: tuple[bytes, ...]
    shared_delta: tuple[bytes, ...]
    halt: bool


@dataclass(frozen=True)
class OutputMsg:
    lines: tuple[str, ...]
    verdict: bool = False


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


@dataclass
class RunReport:
    """Totals and instrumentation for one engine run."""

    total_output_count: int = 0
    jobs_executed: int = 0
    wall_time: float = 0.0
    frequencies: list[int] = field(default_factory=list)
    completed: bool = True
    halted: bool = False
    # (elapsed_seconds, busy_workers, joblist_len) sampled at >= 0.1 s ticks
    samples: list[tuple[float, int, int]] = field(default_factory=list)
    # final shared-store contents, for auditing what was relayed
    shared_tokens: tuple[bytes, ...] = ()


# --------------------------------------------------------------------------
# Worker and consumer loops
# --------------------------------------------------------------------------


def worker_loop(
    worker_id: int,
    app: Application,
    input_bytes: bytes,
    inbox: "queue.Queue",
    to_master: "queue.Queue",
    to_consumer: "queue.Queue",
) -> None:
    """Receive jobs, run the application search, ship results until ``None``.

    Any exception becomes a ``WorkerCrashError`` on the result queue, so the
    master can abort the run instead of waiting forever.
    """
    try:
        global_data, _root = app.init(input_bytes)
        local_shared: list[bytes] = []
        while (msg := inbox.get()) is not None:
            local_shared.extend(msg.shared)
            result = app.search(global_data, msg.payload, msg.budget, tuple(local_shared))
            if result.outputs:
                to_consumer.put(OutputMsg(tuple(result.outputs), verdict=result.halt))
            to_master.put(
                ResultMsg(
                    worker_id=worker_id,
                    visited=result.visited,
                    output_count=result.output_count,
                    unexplored=tuple(result.unexplored),
                    shared_delta=tuple(result.shared_delta),
                    halt=result.halt,
                )
            )
    except Exception as exc:  # noqa: BLE001 - sent to the master, which raises it
        crash = WorkerCrashError(
            f"worker {worker_id} crashed ({type(exc).__name__}: {exc}); "
            "its job is lost and the run was aborted"
        )
        crash.__cause__ = exc  # keeps the worker's traceback for library callers
        to_master.put(crash)


def consumer_loop(inbox: "queue.Queue", out: IO[str], to_master: "queue.Queue") -> None:
    """Write output lines verbatim in arrival order until ``None``.

    Verdict-tagged messages are deduplicated to the first one seen.  A
    failed write or flush (``OSError``) is sent to the master as an
    ``EngineError`` and ends the loop: no later line is written.
    """
    verdict_seen = False
    try:
        while (msg := inbox.get()) is not None:
            if msg.verdict:
                if verdict_seen:
                    continue
                verdict_seen = True
            for line in msg.lines:
                out.write(line + "\n")
        out.flush()
    except OSError as exc:
        to_master.put(EngineError(f"cannot write the output ({type(exc).__name__}: {exc})"))


# --------------------------------------------------------------------------
# Master
# --------------------------------------------------------------------------


class Master:
    """Job-list owner: assigns budgeted jobs, merges results and shared data.

    Its worker state is one inbox per worker, the ``idle`` deque of worker
    ids with no job, and ``in_flight``, which maps each busy worker id to
    its job; every worker id is in exactly one of the two.  Kept separate
    from the thread plumbing so assignment and collection can be exercised
    directly.
    """

    def __init__(self, config: SchedulerConfig) -> None:
        self.config = config
        n = config.num_workers
        self.joblist: deque[bytes] = deque()
        self.store = SharedStore(n)
        self.inboxes: list[queue.Queue] = [queue.Queue() for _ in range(n)]
        self.idle: deque[int] = deque(range(n))
        self.in_flight: dict[int, bytes] = {}
        # every worker's ResultMsg (tagged with its worker_id) and the
        # BtsearchError of a crashed worker or a failed consumer write
        self.results: queue.Queue = queue.Queue()
        self.report = RunReport()
        self.halting = False

    def assign_next(self) -> AssignMsg:
        """Send the head of the job list to the longest-idle worker.

        The budget is chosen from the job-list length before the pop.  The
        message carries exactly the shared tokens newer than the worker's
        high-water mark.
        """
        budget = select_budget(len(self.joblist), self.config)
        job = self.joblist.popleft()
        worker_id = self.idle.popleft()
        self.in_flight[worker_id] = job
        msg = AssignMsg(payload=job, budget=budget, shared=self.store.delta_for(worker_id))
        self.inboxes[worker_id].put(msg)
        return msg

    def collect_result(self, msg: ResultMsg) -> None:
        """Merge one worker result into the job list, store, and report."""
        worker_id = msg.worker_id
        if worker_id not in self.in_flight:
            raise EngineError(f"result from idle worker {worker_id}")
        if msg.visited < 0 or msg.output_count < 0:
            raise EngineError(f"worker {worker_id}: malformed result counts")
        for payload in msg.unexplored:
            if not isinstance(payload, bytes):
                raise EngineError(f"worker {worker_id}: malformed unexplored payload")
            self.joblist.append(payload)
        self.store.merge(msg.shared_delta)
        del self.in_flight[worker_id]
        self.idle.append(worker_id)
        self.report.jobs_executed += 1
        self.report.frequencies.append(msg.visited)
        self.report.total_output_count += msg.output_count
        if msg.halt:
            self.halting = True

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
) -> RunReport:
    """Execute a full parallel run of ``app`` on ``input_bytes``.

    Resolves the budget kind with ``app.resolve_budget_kind`` (ValueError on
    a kind the app does not accept), parses the input and decodes every job and
    shared token of a restart checkpoint (CheckpointError on one that does
    not decode), all before any worker starts.  Then seeds the job list
    with the application root or the restored jobs and drives the master
    loop until every job is done, a worker signals a global answer, or
    ``stop_after_jobs`` triggers a checkpointed early stop.  Output lines
    stream to ``out`` via the consumer; a count-only app (``app.count_only``)
    gets one total line.  A failed write to ``out`` raises EngineError.
    """
    config = replace(config, budget_kind=app.resolve_budget_kind(config.budget_kind))
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

    consumer_inbox: queue.Queue = queue.Queue()
    consumer = threading.Thread(
        target=consumer_loop,
        args=(consumer_inbox, out, master.results),
        name="btsearch-consumer",
        daemon=True,
    )
    consumer.start()
    workers = [
        threading.Thread(
            target=worker_loop,
            args=(worker_id, app, input_bytes, inbox, master.results, consumer_inbox),
            name=f"btsearch-worker-{worker_id}",
            daemon=True,
        )
        for worker_id, inbox in enumerate(master.inboxes)
    ]
    for worker in workers:
        worker.start()

    start_time = time.monotonic()
    last_sample = -1.0
    last_checkpoint = start_time

    def sample_metrics(now: float) -> None:
        nonlocal last_sample
        elapsed = now - start_time
        if elapsed - last_sample >= _SAMPLE_INTERVAL_S or last_sample < 0:
            master.report.samples.append((elapsed, len(master.in_flight), len(master.joblist)))
            last_sample = elapsed

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
            logger.warning("cannot write checkpoint %s: %s", config.checkpoint_path, exc)

    try:
        while True:
            progressed = False
            # Collect any finished results (a crash can arrive even before
            # the first assignment).
            while True:
                try:
                    msg = master.results.get_nowait()
                except queue.Empty:
                    break
                if isinstance(msg, BtsearchError):
                    raise msg
                master.collect_result(msg)
                progressed = True

            # Stop assigning on a halt or once stop_after_jobs results are in;
            # leave when nothing is in flight and the run is stopping or done.
            stopping = master.halting or (
                config.stop_after_jobs is not None
                and master.report.jobs_executed >= config.stop_after_jobs
            )
            if not master.in_flight and (stopping or not master.joblist):
                break

            # Hand out jobs FIFO to free workers under the current budget.
            if not stopping:
                while master.idle and master.joblist:
                    master.assign_next()
                    progressed = True

            now = time.monotonic()
            sample_metrics(now)
            if (
                config.checkpoint_path is not None
                and now - last_checkpoint >= _CHECKPOINT_INTERVAL_S
            ):
                write_checkpoint_now()
                last_checkpoint = now
            if not progressed:
                time.sleep(_IDLE_SLEEP_S)

        now = time.monotonic()
        sample_metrics(now)
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
                consumer_inbox.put(OutputMsg(tuple(final_lines), verdict=False))
        if app.count_only:
            consumer_inbox.put(OutputMsg((str(master.report.total_output_count),)))
    finally:
        for inbox in master.inboxes:
            inbox.put(None)
        consumer_inbox.put(None)
        for worker in workers:
            worker.join(timeout=30.0)
        consumer.join(timeout=30.0)
    # the consumer writes the last lines after the loop ends
    while not master.results.empty():
        msg = master.results.get_nowait()
        if isinstance(msg, BtsearchError):
            raise msg
    return master.report
