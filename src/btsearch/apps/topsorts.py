"""Enumeration of the topological sorts (linear extensions) of a DAG.

Vertices of the search are linear extensions; two extensions are adjacent
when they differ by one swap of neighbouring elements, which is legal
exactly when the swapped pair is unrelated in the partial order.  The tree
root is the lexicographically smallest extension (greedy smallest-available
element), and the local search moves a permutation toward the root by
bubbling the first greedily-misplaced element one step left.  That step is
always legal and strictly shrinks the distance to the root, so every
extension has a unique finite path to it.
"""

from __future__ import annotations

import heapq
from typing import Iterator, NamedTuple

from ..errors import InputFormatError, NodeDecodeError
from ..reverse_search import AdjacencyOracle
from .base import EnumerationApplication, parse_pairs

Perm = tuple[int, ...]
Closure = tuple[list[int], list[int], Perm]


class Poset(NamedTuple):
    """Elements 1..n with precedence pairs (a before b), acyclic."""

    n: int
    relations: frozenset[tuple[int, int]]


def parse_poset(data: bytes | str) -> Poset:
    """Parse ``n m`` followed by m lines ``a b`` (1-based, a precedes b)."""
    return _read_poset(data)[0]


def _read_poset(data: bytes | str) -> tuple[Poset, Closure]:
    """:func:`parse_poset` plus the poset's :func:`_closure`, which rejects cycles."""
    n, pairs = parse_pairs(data, "poset", "relation", "a b")
    relations = set()
    for lineno, a, b in pairs:
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise InputFormatError(f"line {lineno}: relation {a} {b} out of range")
        relations.add((a, b))
    poset = Poset(n=n, relations=frozenset(relations))
    try:
        return poset, _closure(poset)
    except (OverflowError, MemoryError) as exc:  # the closure's lists have n + 1 entries
        raise InputFormatError(f"poset has {n} elements; too many to allocate") from exc


def _closure(poset: Poset) -> Closure:
    """Bitmask transitive closure and the greedy root, from one topological sort.

    Returns ``(succ, pred, order)``: ``succ[a]`` has bit b set when a
    precedes b, ``pred[b]`` has bit a set then, and ``order`` is the
    lexicographically smallest linear extension (Kahn's algorithm taking
    the smallest available element each step).  Raises InputFormatError if
    the relation digraph has a cycle.
    """
    n = poset.n
    succ = [0] * (n + 1)
    pred = [0] * (n + 1)
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for a, b in poset.relations:
        adj[a].append(b)
        indeg[b] += 1
    heap = [v for v in range(1, n + 1) if indeg[v] == 0]  # sorted: already a heap
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in adj[v]:
            pred[w] |= (1 << v) | pred[v]
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != n:
        raise InputFormatError("relation digraph contains a cycle")
    for v in reversed(order):
        mask = 0
        for w in adj[v]:
            mask |= (1 << w) | succ[w]
        succ[v] = mask
    return succ, pred, tuple(order)


class TopsortsOracle(AdjacencyOracle):
    """Adjacent-transposition reverse search over linear extensions."""

    def __init__(self, poset: Poset, closure: Closure | None = None) -> None:
        self.n = poset.n
        self.max_degree = poset.n - 1
        self._succ, self._pred, self._root = closure or _closure(poset)

    def root(self) -> Perm:
        return self._root

    def is_vertex(self, perm: Perm) -> bool:
        """True when ``perm`` is a linear extension of the poset."""
        if sorted(perm) != list(range(1, self.n + 1)):
            return False
        placed = 0
        for e in perm:
            if self._pred[e] & ~placed:
                return False
            placed |= 1 << e
        return True

    def adjacent(self, perm: Perm, j: int) -> Perm | None:
        # Swap positions j-1 and j (0-based); legal unless the left element
        # is required before the right one.
        a, b = perm[j - 1], perm[j]
        if self._succ[a] & (1 << b):
            return None
        return perm[: j - 1] + (b, a) + perm[j + 1 :]

    def parent(self, perm: Perm) -> tuple[Perm, int] | None:
        if perm == self._root:
            return None
        misplaced = self._misplaced(perm)
        if misplaced is None:
            raise NodeDecodeError("permutation is not a linear extension of this poset")
        p = misplaced[1]
        return perm[: p - 1] + (perm[p], perm[p - 1]) + perm[p + 1 :], p

    def children(self, perm: Perm) -> Iterator[Perm]:
        # parent() swaps the first greedily-misplaced element one step left.
        # Swapping inside the greedy prefix (length L) creates that misplaced
        # element at the swap, so every legal swap j <= L is undone by
        # parent(); beyond it, only moving the element the greedy order wants
        # at L (at position p) one step further right is.
        misplaced = self._misplaced(perm)
        length = self.n if misplaced is None else misplaced[0]
        for j in range(1, min(length, self.n - 1) + 1):
            w = self.adjacent(perm, j)
            if w is not None:
                yield w
        if misplaced is not None and misplaced[1] + 1 <= self.n - 1:
            w = self.adjacent(perm, misplaced[1] + 1)
            if w is not None:
                yield w

    def _misplaced(self, perm: Perm) -> tuple[int, int] | None:
        """``(t, p)``: the first position t where ``perm`` leaves the greedy
        order, and the position p > t of the element the greedy order wants
        there; None when ``perm`` follows the greedy order throughout."""
        placed = 0
        for t, x in enumerate(perm):
            g = self._greedy_next(placed)
            if g != x:
                return t, perm.index(g, t)
            placed |= 1 << x
        return None

    def _greedy_next(self, placed: int) -> int:
        for e in range(1, self.n + 1):
            if placed & (1 << e):
                continue
            if self._pred[e] & ~placed == 0:
                return e
        raise NodeDecodeError("no greedy continuation; corrupted permutation")


def format_poset(poset: Poset) -> str:
    """Inverse of :func:`parse_poset`."""
    lines = [f"{poset.n} {len(poset.relations)}"]
    lines += [f"{a} {b}" for a, b in sorted(poset.relations)]
    return "\n".join(lines) + "\n"


def count_extensions(poset: Poset, config=None) -> int:
    """Number of linear extensions, via a count-only parallel run."""
    from ..budget import SchedulerConfig
    from ..engine import run

    app = TopsortsApplication(count_only=True)
    report = run(app, format_poset(poset).encode("ascii"), config or SchedulerConfig())
    return report.total_output_count


class TopsortsApplication(EnumerationApplication):
    name = "topsorts"

    def init(self, input_bytes: bytes) -> tuple[TopsortsOracle, bytes]:
        oracle = TopsortsOracle(*_read_poset(input_bytes))
        return oracle, self.encode_node(oracle.root())
