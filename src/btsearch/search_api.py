"""Contract between the engine and pluggable search applications.

An application parses its input once, produces a root job, and can run a
budgeted search from *any* job it previously produced, in any worker.  Jobs
and shared tokens are the app's own values, immutable builtins that
``marshal`` accepts (a token is also hashable), which the engine passes on
unchanged.  Only a checkpoint holds them as bytes, through the app's
``encode_*``/``decode_*`` methods; every bundled app writes :func:`encode_ints`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, NamedTuple, Sequence

from .budget import Budget
from .errors import NodeDecodeError


def encode_ints(values: Iterable[int]) -> bytes:
    """Every bundled app's checkpoint format: space-separated ASCII decimals."""
    return " ".join(map(str, values)).encode("ascii")


def decode_ints(payload: bytes, what: str) -> tuple[int, ...]:
    """Inverse of :func:`encode_ints`; NodeDecodeError naming ``what`` on garbage."""
    try:
        return tuple(map(int, payload.decode("ascii").split()))
    except (UnicodeDecodeError, ValueError) as exc:
        raise NodeDecodeError(f"bad {what} payload: {exc}") from exc


class SearchResult(NamedTuple):
    """Outcome of one budgeted job.

    ``visited`` is the number of budget units consumed (nodes for
    enumeration; decisions or conflicts for SAT, as the app is set up) and
    is what the frequency file records.  ``output_count`` is the number of
    lines the job output; in count-only mode ``outputs`` stays empty and the
    count alone is returned.  Each ``unexplored`` entry is the job of the
    root of an unexplored subtree, and each ``shared_delta`` entry a token
    for the master to relay.  ``halt`` signals a global answer
    (e.g. a SAT model): the run ends at once, and jobs still in flight are
    abandoned uncounted.
    """

    outputs: Sequence[str] = ()
    output_count: int = 0
    unexplored: Sequence[Any] = ()
    visited: int = 0
    shared_delta: Sequence[Any] = ()
    halt: bool = False


class Application(ABC):
    """Budgeted tree-search code the engine can drive.

    Implementations must be deterministic given (global data, job, budget,
    shared tokens) and must keep global data immutable after ``init``:
    workers only read it.
    """

    # Identity in checkpoints.
    name: str
    # The run's one count-only switch: ``search`` then returns only a count
    # of its lines, and the engine prints the run's total as one line.
    count_only = False

    @abstractmethod
    def init(self, input_bytes: bytes) -> tuple[Any, Any]:
        """Parse input; return (immutable global data, root job)."""

    @abstractmethod
    def search(
        self,
        global_data: Any,
        job: Any,
        budget: Budget,
        shared: Sequence[Any],
    ) -> SearchResult:
        """Run one budgeted job from the vertex ``job``.

        The app decides what a unit of ``budget.max_nodes`` counts.  The
        job's outputs plus the subtrees of its unexplored jobs must cover
        the subtree rooted at that vertex exactly once.  ``job`` and the
        ``shared`` tokens need no check here (see ``decode_node``).
        """

    @abstractmethod
    def encode_node(self, job: Any) -> bytes:
        """The bytes a checkpoint stores for a job from ``init``/``search``."""

    @abstractmethod
    def decode_node(self, payload: bytes, global_data: Any) -> Any:
        """The job ``encode_node`` wrote as ``payload``; NodeDecodeError on
        other bytes.  The engine calls it once per job a checkpoint restores."""

    def encode_token(self, token: Any) -> bytes:
        """The bytes a checkpoint stores for a shared token from ``search``;
        the default suits bytes tokens."""
        return token

    def decode_token(self, token: bytes, global_data: Any) -> Any:
        """As ``decode_node``, for a token ``encode_token`` wrote.  The
        default accepts any bytes, for apps that share nothing."""
        return token

    def finalize(self, global_data: Any) -> list[str]:
        """Lines to emit after a run that ended with no halt and no early stop."""
        return []
