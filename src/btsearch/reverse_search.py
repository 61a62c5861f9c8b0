"""Generic reverse search with optional per-job budgets and pruning.

Reverse search enumerates a set of objects by walking the spanning tree
implicitly defined by a local-search function ``parent`` that maps every
object to its unique predecessor, ending at a designated root.  No visited
set is needed: a neighbour ``w = adjacent(v, j)`` is a tree child of ``v``
exactly when ``parent(w) == (v, j)``.  An oracle's ``children(v)`` yields
those children in increasing ``j``; the default applies the test above to
every ``j``, and an oracle may override it to compute all of a vertex's
children at once.

The traversal keeps a stack of child iterators, one per level of the
current path: the top iterator yields the next sibling to step into, and an
exhausted iterator is popped to backtrack, so ``parent`` is never called to
find the way back and the depth of the vertex being visited is the stack
height.

The budgeted variant stops descending once ``max_nodes`` vertices have been
visited or ``max_depth`` is reached, then drains the iterators back to the
start vertex, emitting every remaining sibling along the backtrack path
flagged as unexplored.  Those flagged vertices are the roots of the
untouched subtrees and become new jobs.  Flagged vertices are forward steps
like any other, so they are counted and emitted; the count over a whole run
therefore sums to the node count of a single unbudgeted traversal.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .errors import OracleConsistencyError

Vertex = Any
Sink = Callable[[Vertex, bool], None]


class AdjacencyOracle(ABC):
    """Neighbourhood structure plus local search over the object graph.

    ``adjacent(v, j)`` returns the j-th neighbour of ``v`` for 1 <= j <=
    ``max_degree`` (or None); ``parent(v)`` returns the pair ``(u, j)`` with
    ``adjacent(u, j) == v`` for every non-root vertex, and None at the root.
    Repeated application of ``parent`` must reach :meth:`root` from any
    vertex.  :meth:`children` is the optional fast path the traversal uses.
    """

    max_degree: int

    @abstractmethod
    def root(self) -> Vertex: ...

    @abstractmethod
    def adjacent(self, vertex: Vertex, j: int) -> Vertex | None: ...

    @abstractmethod
    def parent(self, vertex: Vertex) -> tuple[Vertex, int] | None: ...

    def children(self, vertex: Vertex) -> Iterator[Vertex]:
        """Tree children of ``vertex``, in increasing oracle index ``j``.

        The default tests every neighbour with :meth:`parent`.  An override
        must yield exactly the same vertices in the same order.
        """
        for j in range(1, self.max_degree + 1):
            w = self.adjacent(vertex, j)
            if w is not None and self.parent(w) == (vertex, j):
                yield w


@dataclass
class TraversalResult:
    """Count of forward steps and the unexplored subtree roots returned."""

    count: int
    unexplored: list[Vertex]


def budgeted_search(
    oracle: AdjacencyOracle,
    start: Vertex,
    max_depth: int | None = None,
    max_nodes: int | None = None,
    sink: Sink | None = None,
    hard_cap: int | None = None,
) -> TraversalResult:
    """Depth-first reverse search from ``start`` under a work budget.

    Every visited vertex except ``start`` is passed to ``sink`` together
    with its unexplored flag.  The flag is set on the vertex that exhausts
    the node budget, on every vertex at ``max_depth``, and on each remaining
    sibling encountered while backtracking afterwards; flagged vertices are
    never descended into.

    A consistency guard aborts the traversal when the number of unflagged
    forward steps exceeds ``hard_cap`` (default ``10 * max_nodes``, floor
    1000, when a node budget is set), or when more than ``hard_cap *
    max_degree`` vertices are flagged; either can only happen when the
    oracle's children do not form a tree.
    """
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1 or None")
    if max_nodes is not None and max_nodes < 1:
        raise ValueError("max_nodes must be >= 1 or None")
    if hard_cap is None and max_nodes is not None:
        hard_cap = max(10 * max_nodes, 1000)

    degree = oracle.max_degree
    count = 0
    plain = 0  # unflagged forward steps, for the consistency guard
    unexplored: list[Vertex] = []
    # stack[i] yields the children of the depth-i vertex on the current path
    stack = [iter(oracle.children(start))]

    while stack:
        depth = len(stack)  # of every vertex the top iterator yields
        for w in stack[-1]:
            count += 1
            flagged = (max_nodes is not None and count >= max_nodes) or depth == max_depth
            if flagged:
                unexplored.append(w)
                if hard_cap is not None and len(unexplored) > hard_cap * degree:
                    raise OracleConsistencyError(
                        f"traversal flagged more than {hard_cap * degree} vertices; "
                        "adjacency oracle and local search are inconsistent"
                    )
            else:
                plain += 1
                if hard_cap is not None and plain > hard_cap:
                    raise OracleConsistencyError(
                        f"traversal exceeded {hard_cap} unbudgeted forward steps; "
                        "adjacency oracle and local search are inconsistent"
                    )
            if sink is not None:
                sink(w, flagged)
            if not flagged:
                stack.append(iter(oracle.children(w)))
                break
        else:
            stack.pop()
    return TraversalResult(count=count, unexplored=unexplored)


def reverse_search(
    oracle: AdjacencyOracle,
    start: Vertex,
    sink: Sink | None = None,
) -> int:
    """Exhaustive (unbudgeted) reverse search; returns the vertex count."""
    return budgeted_search(oracle, start, sink=sink).count


def tree_children(oracle: AdjacencyOracle, vertex: Vertex) -> list[Vertex]:
    """Children of ``vertex`` in the reverse-search tree, in oracle order."""
    return list(oracle.children(vertex))


def prune_filter(
    oracle: AdjacencyOracle,
    nodes: list[Vertex],
    mode: int,
) -> tuple[list[Vertex], list[Vertex]]:
    """Thin out an unexplored list before it is returned to the master.

    Mode 0 drops leaves: their output already happened when they were
    flagged, and a job rooted at a leaf would do nothing.  Mode 1 also walks
    single-child chains, emitting each chain vertex on the spot, and keeps
    only a vertex with two or more children (or nothing when the chain dies
    out at a leaf).  Returns ``(kept, emitted)`` where ``emitted`` lists the
    extra vertices output during chain walks; pruning moves outputs between
    jobs but never changes the overall set.
    """
    if mode not in (0, 1):
        raise ValueError("prune mode must be 0 or 1")
    kept: list[Vertex] = []
    emitted: list[Vertex] = []
    for v in nodes:
        kids = tree_children(oracle, v)
        if not kids:
            continue  # leaf: already output, no work left under it
        if mode == 0 or len(kids) >= 2:
            kept.append(v)
            continue
        # mode 1, single child: follow the chain
        cur = kids[0]
        emitted.append(cur)
        kids = tree_children(oracle, cur)
        while len(kids) == 1:
            cur = kids[0]
            emitted.append(cur)
            kids = tree_children(oracle, cur)
        if kids:
            kept.append(cur)
    return kept, emitted
