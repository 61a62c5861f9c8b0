"""Independent exact answers for the benchmark's workloads.

Each check takes a different route from the program it verifies: a downset
dynamic programme instead of reverse search for linear extensions, a
matrix-tree determinant instead of edge exchange for spanning trees.  None
of these imports btsearch.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def count_linear_extensions(n: int, relations: Iterable[tuple[int, int]]) -> int:
    """Linear extensions of a poset on 1..n, by DP over downsets.

    ``ways[S]`` is the number of ways to place the elements of downset S
    first; an element can be added to S once all its predecessors are in S.
    """
    pred = [0] * n
    for a, b in relations:
        pred[b - 1] |= 1 << (a - 1)
    full = (1 << n) - 1
    ways = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for placed, count in ways.items():
            for e in range(n):
                bit = 1 << e
                if not placed & bit and pred[e] & ~placed == 0:
                    key = placed | bit
                    nxt[key] = nxt.get(key, 0) + count
        ways = nxt
    return ways.get(full, 0)


def greedy_scan_steps(n: int, relations: Iterable[tuple[int, int]]) -> int:
    """Elements a full topsorts traversal examines in ``parent``, by DP.

    The reverse-search tree of linear extensions has the greedy extension
    (smallest available element first) as root, and ``parent(w)`` walks
    w's prefix while it agrees with the root, scanning labels 1..r at a
    position where the root holds r: sum of root[t] over t <= d(w), where
    d(w) is the first position at which w leaves the root.  A traversal
    calls ``parent`` on every extension w != root once when backtracking
    and once for every legal adjacent swap in w (the child test), so the
    total weights each w by 1 + s(w), s(w) being its number of adjacent
    incomparable pairs.  Both sums are taken over prefixes of the root
    with a downset DP.  This is the per-seed cost the topsorts workload
    holds steady.
    """
    rels = list(relations)
    pred = [0] * n
    comparable = [0] * n
    for a, b in rels:
        pred[b - 1] |= 1 << (a - 1)
        comparable[a - 1] |= 1 << (b - 1)
        comparable[b - 1] |= 1 << (a - 1)
    full = (1 << n) - 1

    def available(placed: int) -> list[int]:
        return [e for e in range(n) if not placed >> e & 1 and pred[e] & ~placed == 0]

    # completions[S]: extensions of the elements outside downset S.
    # pairs[S][last]: sum over those completions of incomparable adjacent
    # pairs in the sequence (last, completion...).
    downsets = sorted(_downsets(n, pred), key=lambda s: -bin(s).count("1"))
    completions = {full: 1}
    pairs: dict[int, list[int]] = {full: [0] * n}
    for s in downsets:
        if s == full:
            continue
        avail = available(s)
        completions[s] = sum(completions[s | 1 << e] for e in avail)
        row = [0] * n
        for last in range(n):
            row[last] = sum(
                pairs[s | 1 << e][e] + (0 if comparable[last] >> e & 1 else completions[s | 1 << e])
                for e in avail
            )
        pairs[s] = row

    root = []
    placed = 0
    for _ in range(n):
        e = min(available(placed))
        root.append(e)
        placed |= 1 << e
    root_swaps = sum(1 for a, b in zip(root, root[1:]) if not comparable[a] >> b & 1)

    total = 0
    placed = 0
    prefix_swaps = 0
    for t in range(n):
        if t == 0:
            swaps = sum(pairs[1 << e][e] for e in available(0))
        else:
            swaps = prefix_swaps * completions[placed] + pairs[placed][root[t - 1]]
        total += (completions[placed] + swaps) * (root[t] + 1)
        placed |= 1 << root[t]
        if t and not comparable[root[t - 1]] >> root[t] & 1:
            prefix_swaps += 1
    return total - (1 + root_swaps) * sum(e + 1 for e in root)


def _downsets(n: int, pred: list[int]) -> set[int]:
    seen = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for e in range(n):
            if not s >> e & 1 and pred[e] & ~s == 0 and s | 1 << e not in seen:
                seen.add(s | 1 << e)
                frontier.append(s | 1 << e)
    return seen


def extension_line_errors(
    n: int, relations: Iterable[tuple[int, int]], lines: Sequence[str], expected: int
) -> list[str]:
    """Problems with a topsorts output: wrong count, duplicates, invalid lines."""
    errors = []
    if len(lines) != expected:
        errors.append(f"{len(lines)} lines, expected {expected}")
    if len(set(lines)) != len(lines):
        errors.append(f"{len(lines) - len(set(lines))} duplicate lines")
    rels = list(relations)
    elements = list(range(1, n + 1))
    for line in lines:
        try:
            perm = [int(tok) for tok in line.split()]
        except ValueError:
            errors.append(f"unparsable line {line!r}")
            break
        pos = {e: i for i, e in enumerate(perm)}
        if sorted(perm) != elements or any(pos[a] > pos[b] for a, b in rels):
            errors.append(f"not a linear extension: {line!r}")
            break
    return errors


def count_spanning_trees(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Spanning trees of a simple graph on 1..n: det of a reduced Laplacian.

    Bareiss fraction-free elimination keeps every entry an exact integer.
    """
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        u, v = u - 1, v - 1
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    sign, prev = 1, 1
    for k in range(size):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1] if size else 1
