"""Shared machinery for applications built on reverse search."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..budget import Budget
from ..errors import InputFormatError, NodeDecodeError
from ..reverse_search import AdjacencyOracle, budgeted_search, prune_filter
from ..search_api import Application, SearchResult

PRUNE_MODES = {"off": None, "0": 0, "1": 1}


def encode_ints(values: Iterable[int]) -> bytes:
    """Every bundled app's payload format: space-separated ASCII decimals."""
    return " ".join(map(str, values)).encode("ascii")


def decode_ints(payload: bytes, what: str) -> tuple[int, ...]:
    """Inverse of :func:`encode_ints`; NodeDecodeError naming ``what`` on garbage."""
    try:
        return tuple(map(int, payload.decode("ascii").split()))
    except (UnicodeDecodeError, ValueError) as exc:
        raise NodeDecodeError(f"bad {what} payload: {exc}") from exc


def parse_pairs(
    data: bytes | str, what: str, item: str, fields: str
) -> tuple[int, list[tuple[int, int, int]]]:
    """Read an ``n m`` header then m lines of two integers; ``#`` starts a comment.

    Returns n and one ``(line number, first, second)`` per pair line; the
    caller checks what the pairs mean.  Messages call the input ``what``
    (``graph``), each pair an ``item`` (``edge``) with ``fields`` (``u v``).
    """
    text = data.decode("ascii", errors="replace") if isinstance(data, bytes) else data
    rows = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    rows = [(i + 1, r) for i, r in enumerate(rows) if r]
    if not rows:
        raise InputFormatError(f"{what} input is empty")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise InputFormatError(f"line {lineno}: expected 'n m' header, got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputFormatError(f"line {lineno}: bad header numbers: {exc}") from exc
    if n < 1 or m < 0:
        raise InputFormatError(f"line {lineno}: need n >= 1 and m >= 0")
    if len(rows) - 1 != m:
        raise InputFormatError(f"expected {m} {item} lines, found {len(rows) - 1}")
    pairs = []
    for lineno, row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise InputFormatError(f"line {lineno}: expected '{fields}', got {row!r}")
        try:
            pairs.append((lineno, int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: bad {item}: {exc}") from exc
    return n, pairs


class EnumerationApplication(Application):
    """Reverse-search application: one oracle, one vertex codec, one format.

    Subclasses provide ``init``, which returns the oracle as the global data;
    this class runs the budgeted traversal for a job, applies optional
    pruning to the unexplored list, and packages the result.  Pruned-away
    chain vertices are emitted (and counted) by the pruning job itself so
    the run-wide partition of visits is preserved exactly.  The default
    codec and line format suit integer-tuple vertices: :func:`encode_ints`
    payloads, decoded only to a tuple the oracle's ``is_vertex`` accepts.
    """

    def __init__(self, prune: str = "off", count_only: bool = False) -> None:
        if prune not in PRUNE_MODES:
            raise ValueError(f"prune must be one of {sorted(PRUNE_MODES)}")
        self.prune_mode = PRUNE_MODES[prune]
        self.count_only = count_only

    # Subclass surface ------------------------------------------------------

    def oracle_for(self, global_data: Any) -> AdjacencyOracle:
        """The oracle a job searches; ``init`` returns it as the global data."""
        return global_data

    def format_vertex(self, global_data: Any, vertex: Any) -> str:
        return " ".join(map(str, vertex))

    def encode_node(self, vertex: Any) -> bytes:
        return encode_ints(vertex)

    def decode_node(self, payload: bytes, global_data: Any) -> Any:
        # not through oracle_for(): a wrapping oracle need not forward is_vertex
        vertex = decode_ints(payload, f"{self.name} vertex")
        if not global_data.is_vertex(vertex):
            raise NodeDecodeError(f"payload is not a vertex of this {self.name} input")
        return vertex

    # Application contract --------------------------------------------------

    def search(
        self,
        global_data: Any,
        payload: bytes,
        budget: Budget,
        shared: Sequence[bytes],
    ) -> SearchResult:
        oracle = self.oracle_for(global_data)
        start = self.decode_node(payload, global_data)
        outputs: list[str] = []
        tally = 0

        if self.count_only:
            def sink(vertex: Any, flagged: bool) -> None:
                nonlocal tally
                tally += 1
        else:
            def sink(vertex: Any, flagged: bool) -> None:
                nonlocal tally
                tally += 1
                outputs.append(self.format_vertex(global_data, vertex))

        # The traversal never emits a job's start vertex: every other job's
        # start was already output (flagged) by the job that split it off.
        # The global root has no such parent job, so emit it here, uncounted.
        if start == oracle.root():
            sink(start, False)

        result = budgeted_search(
            oracle,
            start,
            max_depth=budget.max_depth,
            max_nodes=budget.max_nodes,
            sink=sink,
        )
        kept = result.unexplored
        visited = result.count
        if self.prune_mode is not None and kept:
            kept, extra = prune_filter(oracle, kept, self.prune_mode)
            for vertex in extra:
                sink(vertex, False)
            visited += len(extra)
        return SearchResult(
            outputs=outputs,
            output_count=tally,
            unexplored=[self.encode_node(v) for v in kept],
            visited=visited,
            shared_delta=[],
        )
