"""The topsorts oracle as it was before its O(n) per-node kernel.

The differential test in ``test_topsorts.py`` runs this copy and
``btsearch.apps.topsorts.TopsortsOracle`` side by side: on every linear
extension of a poset, an optimisation of the oracle must return the same
``children`` and ``parent``.  The class is unchanged apart from its name
and imports; do not edit it.  Its ``_misplaced`` calls ``_greedy_next`` at
every prefix position, and each call scans the elements 1..n, so each
node costs O(n²).
"""

from __future__ import annotations

from typing import Iterator

from btsearch.apps.topsorts import Closure, Perm, Poset, _closure
from btsearch.errors import NodeDecodeError
from btsearch.reverse_search import AdjacencyOracle


class ReferenceTopsortsOracle(AdjacencyOracle):
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
