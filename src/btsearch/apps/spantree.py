"""Enumeration of the spanning trees of a connected graph by edge exchange.

A search vertex is a spanning tree encoded as its sorted edge-index tuple.
Neighbouring trees differ by one exchange: drop a tree edge, add a non-tree
edge across the resulting cut.  The root is the index-lexicographically
least tree (greedy by edge index); the local search removes the
largest-index edge outside the root tree and reconnects with the
smallest-index root edge crossing the cut, which strictly shrinks the
symmetric difference with the root, so the path to the root is finite and
unique.

Oracle index ``j`` ranges over (tree-edge position, non-tree-edge position)
pairs in lexicographic order, positions taken in ascending edge index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import InputFormatError
from ..reverse_search import AdjacencyOracle
from .base import EnumerationApplication, parse_pairs

Tree = tuple[int, ...]  # sorted 0-based edge indices


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph; edge index = input order (0-based)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)


def parse_graph(data: bytes | str) -> Graph:
    """Parse ``n m`` followed by m lines ``u v`` (1-based vertices)."""
    n, pairs = parse_pairs(data, "graph", "edge", "u v")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, u, v in pairs:
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputFormatError(f"line {lineno}: edge {u} {v} out of range")
        if u == v:
            raise InputFormatError(f"line {lineno}: self-loop {u} {v} not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputFormatError(f"line {lineno}: parallel edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    graph = Graph(n=n, edges=tuple(edges))
    if not _connected(graph):
        raise InputFormatError("graph is not connected")
    return graph


def _connected(graph: Graph) -> bool:
    if graph.m < graph.n - 1:  # before allocating anything of size n
        return False
    if graph.n == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(graph.n + 1)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.n


class SpantreeOracle(AdjacencyOracle):
    """Edge-exchange reverse search over spanning trees."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.n_tree = graph.n - 1
        self.n_non = graph.m - self.n_tree
        self.max_degree = self.n_tree * self.n_non
        self._root = self._greedy_root()
        self._rootset = frozenset(self._root)

    def _greedy_root(self) -> Tree:
        return tuple(self._forest_edges(range(self.graph.m)))

    def _forest_edges(self, indices: Iterable[int]) -> list[int]:
        """The edge indices, in the given order, that join two components of
        the edges kept before them (Kruskal's rule, by union-find)."""
        parent = list(range(self.graph.n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        kept = []
        for idx in indices:
            u, v = self.graph.edges[idx]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                kept.append(idx)
        return kept

    def root(self) -> Tree:
        return self._root

    # -- helpers ------------------------------------------------------------

    def _tree_adjacency(self, tree: Tree) -> list[list[tuple[int, int]]]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.graph.n + 1)]
        for idx in tree:
            u, v = self.graph.edges[idx]
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        return adj

    def is_vertex(self, tree: Tree) -> bool:
        """True when ``tree`` lists, in increasing order, the edge indices
        of a spanning tree."""
        if len(tree) != self.n_tree or list(tree) != sorted(set(tree)):
            return False
        if any(not 0 <= idx < self.graph.m for idx in tree):
            return False
        # n - 1 distinct edges form a spanning tree exactly when none closes a cycle
        return len(self._forest_edges(tree)) == self.n_tree

    def _non_tree(self, tree: Tree) -> list[int]:
        inside = set(tree)
        return [idx for idx in range(self.graph.m) if idx not in inside]

    # -- oracle surface -----------------------------------------------------

    def adjacent(self, tree: Tree, j: int) -> Tree | None:
        if self.n_non == 0:
            return None
        a, b = divmod(j - 1, self.n_non)
        e_out = tree[a]
        e_in = self._non_tree(tree)[b]
        if not self._crosses(self._cut_side(self._tree_adjacency(tree), e_out), e_in):
            return None  # exchange would disconnect
        return tuple(sorted(set(tree) - {e_out} | {e_in}))

    def parent(self, tree: Tree) -> tuple[Tree, int] | None:
        if tree == self._root:
            return None
        e_out = max(set(tree) - self._rootset)
        e_in = self._root_edge_across(self._cut_side(self._tree_adjacency(tree), e_out))
        parent = tuple(sorted(set(tree) - {e_out} | {e_in}))
        a = parent.index(e_in)
        b = self._non_tree(parent).index(e_out)
        return parent, a * self.n_non + b + 1

    def children(self, tree: Tree) -> Iterator[Tree]:
        # T - e + f is a child of T exactly when parent() undoes the exchange:
        # f is the largest edge of the child outside the root (so f is a
        # non-root edge above every non-root edge of T), and e is the smallest
        # root edge across the cut of T - e (so e is a root edge).
        rootset = self._rootset
        inside = set(tree)
        floor = max(inside - rootset, default=-1)
        entering = [f for f in range(floor + 1, self.graph.m) if f not in inside and f not in rootset]
        if not entering:
            return
        adj = self._tree_adjacency(tree)
        for e in tree:
            if e not in rootset:
                continue
            side = self._cut_side(adj, e)
            if self._root_edge_across(side) != e:
                continue
            for f in entering:
                if self._crosses(side, f):
                    yield tuple(sorted(inside - {e} | {f}))

    def _cut_side(self, adj: list[list[tuple[int, int]]], e_out: int) -> set[int]:
        """Vertices on one side of the cut induced by removing e_out."""
        start = self.graph.edges[e_out][0]
        side = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w, idx in adj[u]:
                if idx != e_out and w not in side:
                    side.add(w)
                    stack.append(w)
        return side

    def _crosses(self, side: set[int], idx: int) -> bool:
        u, v = self.graph.edges[idx]
        return (u in side) != (v in side)

    def _root_edge_across(self, side: set[int]) -> int:
        """Smallest root edge with exactly one endpoint in ``side``."""
        return next(idx for idx in self._root if self._crosses(side, idx))


def format_graph(graph: Graph) -> str:
    """Inverse of :func:`parse_graph` (edge order preserved)."""
    lines = [f"{graph.n} {graph.m}"]
    lines += [f"{u} {v}" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def count_spanning_trees(graph: Graph, config=None) -> int:
    """Number of spanning trees, via a count-only parallel run."""
    from ..budget import SchedulerConfig
    from ..engine import run

    app = SpantreeApplication(count_only=True)
    report = run(app, format_graph(graph).encode("ascii"), config or SchedulerConfig())
    return report.total_output_count


class SpantreeApplication(EnumerationApplication):
    name = "spantree"

    def init(self, input_bytes: bytes) -> tuple[SpantreeOracle, bytes]:
        oracle = SpantreeOracle(parse_graph(input_bytes))
        return oracle, self.encode_node(oracle.root())

    def format_vertex(self, global_data: SpantreeOracle, vertex: Tree) -> str:
        return " ".join(str(idx + 1) for idx in vertex)  # 1-based like the input
