"""Contract between the engine and pluggable search applications.

An application parses its input once, produces a root job payload, and can
run a budgeted search from *any* payload it previously produced, in any
worker.  Job payloads and shared tokens are opaque bytes to the engine; only
the owning application interprets them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, NamedTuple, Sequence

from .budget import Budget
from .errors import BudgetKindError


class SearchResult(NamedTuple):
    """Outcome of one budgeted job.

    ``visited`` is the number of budget units consumed (nodes for
    enumeration, decisions/conflicts for SAT) and is what the frequency file
    records.  In count-only mode ``outputs`` stays empty and ``output_count``
    carries the tally.  Each ``unexplored`` entry is the payload of the root
    of an unexplored subtree.  ``halt`` signals a global answer (e.g. a SAT model):
    the run ends at once, and jobs still in flight are abandoned uncounted.
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

    # Identity in checkpoints, and the budget kinds the app accepts (the
    # first is its default).
    name: str
    budget_kinds: tuple[str, ...] = ("nodes",)
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

        ``budget.kind`` is always one of ``budget_kinds``: the
        engine rejects any other kind before a worker starts.  The job's
        outputs plus the subtrees of its unexplored payloads must
        cover the subtree rooted at that vertex exactly once.
        """

    @abstractmethod
    def decode_node(self, payload: bytes, global_data: Any) -> Any:
        """The vertex a payload from ``init``/``search`` encodes; NodeDecodeError
        on other bytes.  The engine also checks each restored job with it."""

    def decode_token(self, token: bytes, global_data: Any) -> Any:
        """The value a shared token from ``search`` encodes; NodeDecodeError on
        other bytes.  The engine checks each restored token with it.  The
        default accepts any bytes, for apps that share nothing."""
        return token

    def finalize(self, global_data: Any) -> list[str]:
        """Lines to emit after a run that ended with no halt and no early stop."""
        return []

    @classmethod
    def resolve_budget_kind(cls, kind: str | None) -> str:
        """``kind``, or the default kind for ``None``; BudgetKindError (a
        ValueError) if not accepted."""
        if kind is None:
            return cls.budget_kinds[0]
        if kind not in cls.budget_kinds:
            accepted = ", ".join(cls.budget_kinds)
            raise BudgetKindError(f"{cls.name} accepts budget kinds {accepted}, not {kind!r}")
        return kind
