"""Contract between the engine and pluggable search applications.

An application parses its input once, produces a root job payload, and can
run a budgeted search from *any* payload it previously produced, in any
worker.  Job payloads and shared tokens are opaque bytes to the engine; only
the owning application interprets them.  Every bundled app writes them with
:func:`encode_ints`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, NamedTuple, Sequence

from .budget import Budget
from .errors import NodeDecodeError


def encode_ints(values: Iterable[int]) -> bytes:
    """Every bundled app's payload format: space-separated ASCII decimals."""
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
    count alone is returned.  Each ``unexplored`` entry is the payload of
    the root of an unexplored subtree.  ``halt`` signals a global answer
    (e.g. a SAT model): the run ends at once, and jobs still in flight are
    abandoned uncounted.
    """

    outputs: Sequence[str] = ()
    output_count: int = 0
    unexplored: Sequence[bytes] = ()
    visited: int = 0
    shared_delta: Sequence[bytes] = ()
    halt: bool = False


class Application(ABC):
    """Budgeted tree-search code the engine can drive.

    Implementations must be deterministic given (global data, payload, budget,
    shared tokens) and must keep global data immutable after ``init``:
    workers only read it.
    """

    # Identity in checkpoints.
    name: str
    # The run's one count-only switch: ``search`` then returns only a count
    # of its lines, and the engine prints the run's total as one line.
    count_only = False

    @abstractmethod
    def init(self, input_bytes: bytes) -> tuple[Any, bytes]:
        """Parse input; return (immutable global data, root job payload)."""

    @abstractmethod
    def search(
        self,
        global_data: Any,
        payload: bytes,
        budget: Budget,
        shared: Sequence[bytes],
    ) -> SearchResult:
        """Run one budgeted job from the vertex ``payload`` encodes.

        The app decides what a unit of ``budget.max_nodes`` counts.  The
        job's outputs plus the subtrees of its unexplored payloads must
        cover the subtree rooted at that vertex exactly once.  The
        ``shared`` tokens need no check here (see ``decode_token``).
        """

    @abstractmethod
    def decode_node(self, payload: bytes, global_data: Any) -> Any:
        """The vertex a payload from ``init``/``search`` encodes; NodeDecodeError
        on other bytes.  The engine also checks each restored job with it."""

    def decode_token(self, token: bytes, global_data: Any) -> Any:
        """The value a shared token from ``search`` encodes; NodeDecodeError on
        other bytes.  The engine checks each restored token with it, once;
        every other token came from ``search``, which need not check them
        again.  The default accepts any bytes, for apps that share nothing."""
        return token

    def finalize(self, global_data: Any) -> list[str]:
        """Lines to emit after a run that ended with no halt and no early stop."""
        return []
