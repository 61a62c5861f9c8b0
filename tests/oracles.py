"""Independent reference implementations used to pin expected test values.

Everything here is deliberately implemented by a different route than the
package code it checks: permutation filters instead of reverse search,
determinants instead of edge-exchange enumeration, exhaustive assignment
enumeration instead of CDCL, and a per-node stack DFS instead of the
subtree-size job walker.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from typing import Sequence

import numpy as np

from btsearch.apps.sat.dimacs import CnfFormula
from btsearch.apps.spantree import Graph
from btsearch.apps.topsorts import Poset

# --------------------------------------------------------------------------
# Posets / linear extensions
# --------------------------------------------------------------------------


def antichain(n: int) -> Poset:
    return Poset(n=n, relations=frozenset())


def total_order(n: int) -> Poset:
    return Poset(n=n, relations=frozenset((i, i + 1) for i in range(1, n)))


def bipartite_poset(a: int, b: int) -> Poset:
    """Every one of the first a elements precedes every one of the last b."""
    rel = frozenset((i, a + j) for i in range(1, a + 1) for j in range(1, b + 1))
    return Poset(n=a + b, relations=rel)


def random_poset(rng: random.Random, n: int, density: float = 0.3) -> Poset:
    """Random DAG on 1..n: orient each picked pair by a hidden permutation."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    rank = {e: i for i, e in enumerate(order)}
    rel = set()
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b and rank[a] < rank[b] and rng.random() < density:
                rel.add((a, b))
    return Poset(n=n, relations=frozenset(rel))


def brute_force_extensions(poset: Poset) -> list[tuple[int, ...]]:
    """All linear extensions by filtering every permutation."""
    out = []
    for perm in itertools.permutations(range(1, poset.n + 1)):
        pos = {e: i for i, e in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in poset.relations):
            out.append(perm)
    return out


# --------------------------------------------------------------------------
# Graphs / spanning trees
# --------------------------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return Graph(n=n, edges=tuple(edges))


def complete_graph(n: int) -> Graph:
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Graph(n=n, edges=tuple(edges))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    edges = [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    return Graph(n=a + b, edges=tuple(edges))


def petersen_graph() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return Graph(n=10, edges=tuple(outer + spokes + inner))


def random_connected_graph(rng: random.Random, n: int, extra_edges: int) -> Graph:
    """Random spanning tree plus extra random non-parallel edges."""
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, n):
        a = nodes[i]
        b = nodes[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    candidates = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return Graph(n=n, edges=tuple(sorted(edges)))


def matrix_tree_count(graph: Graph) -> int:
    """Kirchhoff count: determinant of the reduced Laplacian, done exactly."""
    n = graph.n
    if n == 1:
        return 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in graph.edges:
        lap[u - 1][u - 1] += 1
        lap[v - 1][v - 1] += 1
        lap[u - 1][v - 1] -= 1
        lap[v - 1][u - 1] -= 1
    mat = [row[1:] for row in lap[1:]]  # strike row/column 0
    det = Fraction(1)
    size = n - 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor:
                for c in range(col, size):
                    mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return int(det)


# --------------------------------------------------------------------------
# SAT
# --------------------------------------------------------------------------


def brute_force_sat(formula: CnfFormula) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustive vectorized enumeration: (satisfiable, one model or None)."""
    n = formula.num_vars
    if any(len(c) == 0 for c in formula.clauses):
        return False, None
    if n == 0:
        return True, ()
    assignments = np.arange(1 << n, dtype=np.uint64)
    ok = np.ones(1 << n, dtype=bool)
    for clause in formula.clauses:
        sat = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            bit = (assignments >> np.uint64(abs(lit) - 1)) & np.uint64(1)
            sat |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
        ok &= sat
        if not ok.any():
            return False, None
    idx = int(np.nonzero(ok)[0][0])
    model = tuple(v if (idx >> (v - 1)) & 1 else -v for v in range(1, n + 1))
    return True, model


def brute_force_implied(formula: CnfFormula, clause: Sequence[int]) -> bool:
    """formula |= clause, by checking formula AND NOT clause is unsatisfiable."""
    augmented = CnfFormula(
        num_vars=formula.num_vars, clauses=formula.clauses + tuple((-lit,) for lit in clause)
    )
    sat, _ = brute_force_sat(augmented)
    return not sat


def unit_propagate(
    clauses: Sequence[Sequence[int]],
    assignment: Sequence[int] = (),
) -> tuple[list[int], tuple[int, ...] | None]:
    """Plain unit propagation to fixpoint, independent of the solver.

    Returns the extended assignment (input order preserved, derived
    literals appended) and the first falsified clause, or None.
    """
    assigned: dict[int, bool] = {}
    order: list[int] = []
    for lit in assignment:
        assigned[abs(lit)] = lit > 0
        order.append(lit)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = []
            satisfied = False
            for lit in clause:
                val = assigned.get(abs(lit))
                if val is None:
                    unassigned.append(lit)
                elif (lit > 0) == val:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return order, tuple(clause)
            if len(unassigned) == 1:
                lit = unassigned[0]
                assigned[abs(lit)] = lit > 0
                order.append(lit)
                changed = True
    return order, None


def pigeonhole_cnf(pigeons: int, holes: int) -> CnfFormula:
    """PHP(pigeons -> holes): var (p,h) = pigeon p in hole h."""
    def var(p: int, h: int) -> int:
        return (p - 1) * holes + h

    clauses: list[tuple[int, ...]] = []
    for p in range(1, pigeons + 1):
        clauses.append(tuple(var(p, h) for h in range(1, holes + 1)))
    for h in range(1, holes + 1):
        for p1 in range(1, pigeons + 1):
            for p2 in range(p1 + 1, pigeons + 1):
                clauses.append((-var(p1, h), -var(p2, h)))
    return CnfFormula(num_vars=pigeons * holes, clauses=tuple(clauses))


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def occurrences(formula: CnfFormula) -> list[int]:
    """The number of clause literals on each variable, indexed by variable."""
    counts = [0] * (formula.num_vars + 1)
    for clause in formula.clauses:
        for lit in clause:
            counts[abs(lit)] += 1
    return counts


def cnf_text(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in formula.clauses]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Explicit trees (for reverse-search and Galton-Watson checks)
# --------------------------------------------------------------------------


def gw_reference_jobs(sizes: np.ndarray, budget: int | None):
    """Per-node stack DFS job loop over an offspring-sequence tree.

    Returns (unexplored_total, counts per job, flagged order per job).
    """
    jobs = deque([0])
    counts = []
    unexplored_total = 0
    while jobs:
        s = jobs.popleft()
        count = 0
        flagged: list[int] = []
        stack = [(int(s), int(s) + 1, int(s) + int(sizes[s]))]
        while stack:
            node, ptr, end = stack.pop()
            if ptr >= end:
                continue
            child = ptr
            child_end = child + int(sizes[child])
            stack.append((node, child_end, end))
            count += 1
            if budget is not None and count >= budget:
                flagged.append(child)
            else:
                stack.append((child, child + 1, child_end))
        counts.append(count)
        unexplored_total += len(flagged)
        jobs.extend(flagged)
    return unexplored_total, counts


def random_offspring_sequence(rng: random.Random, max_size: int) -> list[int]:
    """Small random complete tree as a depth-first offspring sequence."""
    while True:
        seq = []
        open_branches = 1
        while open_branches > 0 and len(seq) < max_size:
            k = rng.choice([0, 0, 1, 2, 3])
            seq.append(k)
            open_branches += k - 1
        if open_branches == 0:
            return seq
