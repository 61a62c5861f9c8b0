"""How the master starts, feeds, hears from and stops its workers.

Both transports give the engine the same four operations:

- ``start(num_workers, work)`` starts workers ``0 .. num_workers - 1``.
  Worker ``i`` runs ``work(i, receive, send)``: ``receive()`` blocks for
  the next message from the master and returns ``None`` once it is told to
  stop; ``send(msg)`` sends one message to the master.
- ``send(worker_id, msg)`` sends one message to one worker.
- ``receive()`` blocks, with no timeout, for the next message from any
  worker; Ctrl-C interrupts it.
- ``stop()`` ends every worker and releases what ``start`` made, also
  after a failed or partial start.

``ThreadTransport`` runs the workers as threads of this process, with one
``queue.SimpleQueue`` per worker and one shared result queue.
``ForkTransport`` forks one process per worker, with one pipe each way per
worker and length-prefixed ``marshal`` messages; the master waits on every
result pipe at once with ``select.poll``.  ``marshal`` is loaded with the
interpreter and takes only builtins: the messages are bare tuples, and a
``WorkerCrashError`` a worker sends crosses as its text.  A worker process
that dies closes its result pipe, so the master's ``receive`` raises
``WorkerCrashError`` at once.
"""

from __future__ import annotations

import gc
import marshal
import os
import select
import sys
from collections import deque
from typing import Any, Callable, NoReturn

from .errors import EngineError, WorkerCrashError

Work = Callable[[int, Callable[[], Any], Callable[[Any], None]], None]

_HEADER_BYTES = 8  # little-endian length of the marshalled message that follows
_SIGKILL = 9  # signal.SIGKILL; importing the signal module costs about 1 ms per run


class ThreadTransport:
    """Workers as daemon threads that share this process and its GIL.
    ``start`` imports ``queue`` and ``threading``: a fork run needs neither."""

    def __init__(self) -> None:
        self._inboxes: list[Any] = []
        self._threads: list[Any] = []

    def start(self, num_workers: int, work: Work) -> None:
        import queue
        import threading

        self._results = queue.SimpleQueue()
        for worker_id in range(num_workers):
            inbox: queue.SimpleQueue = queue.SimpleQueue()
            thread = threading.Thread(
                target=work,
                args=(worker_id, inbox.get, self._results.put),
                name=f"btsearch-worker-{worker_id}",
                daemon=True,
            )
            self._inboxes.append(inbox)
            self._threads.append(thread)
            thread.start()

    def send(self, worker_id: int, msg: Any) -> None:
        self._inboxes[worker_id].put(msg)

    def receive(self) -> Any:
        return self._results.get()

    def stop(self) -> None:
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join(timeout=30.0)


def _write_msg(fd: int, msg: Any) -> None:
    body = marshal.dumps(msg)
    data = memoryview(len(body).to_bytes(_HEADER_BYTES, "little") + body)
    while data:
        data = data[os.write(fd, data):]


def _read_exact(fd: int, size: int) -> bytes | None:
    """``size`` bytes from ``fd``, or None if it reaches end of file first."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _read_msg(fd: int) -> Any:
    """The next message on ``fd``; None at end of file, also inside a message."""
    header = _read_exact(fd, _HEADER_BYTES)
    if header is None:
        return None
    body = _read_exact(fd, int.from_bytes(header, "little"))
    return None if body is None else marshal.loads(body)


class ForkTransport:
    """Workers as forked processes: one pipe each way per worker.

    Each child inherits the master's memory as it was at the fork, so it
    searches the global data the master's ``init`` built.  A child closes
    every pipe end but its own two, so its inbox reads end of file once the
    master is gone, and it never touches the inherited stdio: it leaves
    through ``os._exit``.  Only bytes that this master's own children wrote
    are ever unmarshalled.
    """

    def __init__(self) -> None:
        self._pids: list[int] = []
        self._fds: set[int] = set()  # every pipe end this process holds
        self._inboxes: list[int] = []  # write end of each worker's inbox
        self._workers: dict[int, int] = {}  # read end of a result pipe -> worker id
        self._poll = select.poll()
        self._ready: deque[int] = deque()

    def _pipe(self) -> tuple[int, int]:
        read_end, write_end = os.pipe()
        self._fds.update((read_end, write_end))
        return read_end, write_end

    def start(self, num_workers: int, work: Work) -> None:
        # unwritten output in these buffers would otherwise be copied to each child
        sys.stdout.flush()
        sys.stderr.flush()
        # With one worker per CPU this process may use, worker i keeps to
        # the i-th CPU.  A pipe write wakes its reader on the writer's CPU,
        # so left alone the workers tend to share one CPU.  Other worker
        # counts are left to the scheduler: a run with fewer workers than
        # CPUs would otherwise stack its workers on the same CPUs as every
        # other such run.
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        if num_workers < 2 or num_workers != len(cpus):
            cpus = []
        # The children's collections skip what exists at the fork: a
        # collection writes to every object it visits, and so would copy
        # every inherited page.
        gc.freeze()
        try:
            for worker_id in range(num_workers):
                try:
                    inbox_read, inbox_write = self._pipe()
                    result_read, result_write = self._pipe()
                    pid = os.fork()
                except OSError as exc:
                    raise EngineError(
                        f"cannot start worker {worker_id} ({type(exc).__name__}: {exc})"
                    ) from exc
                if pid == 0:
                    cpu = cpus[worker_id] if cpus else None
                    self._child(worker_id, work, inbox_read, result_write, cpu)
                self._pids.append(pid)
                for fd in (inbox_read, result_write):
                    os.close(fd)
                    self._fds.discard(fd)
                self._inboxes.append(inbox_write)
                self._workers[result_read] = worker_id
                self._poll.register(result_read, select.POLLIN)
        finally:
            gc.unfreeze()

    def _child(
        self, worker_id: int, work: Work, inbox: int, results: int, cpu: int | None
    ) -> NoReturn:
        code = 1
        try:
            for fd in self._fds - {inbox, results}:
                os.close(fd)
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, (cpu,))
                except OSError:
                    pass  # a placement hint: the worker runs wherever it may

            def send(msg: Any) -> None:
                # an exception is no builtin: a crash crosses as its text
                _write_msg(results, str(msg) if isinstance(msg, WorkerCrashError) else msg)

            work(worker_id, lambda: _read_msg(inbox), send)
            code = 0
        finally:
            os._exit(code)  # never returns into the master's code, never flushes stdio

    def send(self, worker_id: int, msg: Any) -> None:
        try:
            _write_msg(self._inboxes[worker_id], msg)
        except OSError as exc:  # the worker is gone: its inbox has no reader
            raise self._crash(worker_id) from exc

    def receive(self) -> Any:
        if not self._ready:
            self._ready.extend(fd for fd, _event in self._poll.poll())
        fd = self._ready.popleft()
        msg = _read_msg(fd)
        if msg is None:
            raise self._crash(self._workers[fd])
        return WorkerCrashError(msg) if isinstance(msg, str) else msg

    @staticmethod
    def _crash(worker_id: int) -> WorkerCrashError:
        return WorkerCrashError(
            f"worker {worker_id} died without a result; its job is lost and the run was aborted"
        )

    def stop(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds.clear()
        # idle workers would exit on end of file, busy ones only after their
        # job: kill both, so that no exit path waits for a job, and reap them
        # after all are killed, so that they exit side by side
        for pid in self._pids:
            os.kill(pid, _SIGKILL)
        for pid in self._pids:
            os.waitpid(pid, 0)
        self._pids.clear()
