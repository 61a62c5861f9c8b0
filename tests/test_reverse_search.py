import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btsearch.errors import OracleConsistencyError
from btsearch.reverse_search import (
    AdjacencyOracle,
    budgeted_search,
    prune_filter,
    reverse_search,
)

from oracles import random_offspring_sequence


class ExplicitTreeOracle(AdjacencyOracle):
    """Oracle over an explicitly stored rooted tree (children lists)."""

    def __init__(self, children: dict[str, list[str]], root: str = "r") -> None:
        self._children = children
        self._root = root
        self._parent: dict[str, tuple[str, int]] = {}
        for node, kids in children.items():
            for j, kid in enumerate(kids, start=1):
                self._parent[kid] = (node, j)
        self.max_degree = max((len(k) for k in children.values()), default=0)

    def root(self) -> str:
        return self._root

    def adjacent(self, vertex: str, j: int) -> str | None:
        kids = self._children.get(vertex, [])
        return kids[j - 1] if j <= len(kids) else None

    def parent(self, vertex: str) -> tuple[str, int] | None:
        return self._parent.get(vertex)


def complete_binary_depth3() -> ExplicitTreeOracle:
    """15 vertices: root r, children a/b, grandchildren aa..bb, 8 leaves."""
    children = {"r": ["a", "b"]}
    for x in ("a", "b"):
        children[x] = [x + "a", x + "b"]
        for y in (x + "a", x + "b"):
            children[y] = [y + "a", y + "b"]
    return ExplicitTreeOracle(children)


def path_tree(n: int) -> ExplicitTreeOracle:
    children = {f"v{i}": [f"v{i+1}"] for i in range(n - 1)}
    children[f"v{n-1}"] = []
    return ExplicitTreeOracle(children, root="v0")


def from_offspring(seq: list[int]) -> ExplicitTreeOracle:
    """Offspring sequence (depth-first) to explicit children lists."""
    children: dict[str, list[str]] = {}
    counter = [0]

    def build(k_index: int) -> tuple[str, int]:
        name = f"n{counter[0]}"
        counter[0] += 1
        kids = []
        idx = k_index + 1
        for _ in range(seq[k_index]):
            child_name, idx = build(idx)
            kids.append(child_name)
        children[name] = kids
        return name, idx

    import sys

    sys.setrecursionlimit(10000)
    build(0)
    return ExplicitTreeOracle(children, root="n0")


def collect(oracle, start, **budgets):
    emitted: list[tuple[str, bool]] = []
    result = budgeted_search(
        oracle, start, sink=lambda v, f: emitted.append((v, f)), **budgets
    )
    return result, emitted


def subtree_vertices(oracle, start) -> set:
    """Exhaustive recursive walk, independent of the traversal under test."""
    out = set()

    def visit(v):
        for kid in oracle.children(v):
            out.add(kid)
            visit(kid)

    visit(start)
    return out


class TestUnbudgeted:
    def test_complete_binary_tree_counts_all_but_root(self):
        assert reverse_search(complete_binary_depth3(), "r") == 14

    def test_single_vertex(self):
        oracle = ExplicitTreeOracle({"r": []})
        assert reverse_search(oracle, "r") == 0

    def test_path_of_four(self):
        assert reverse_search(path_tree(4), "v0") == 3

    def test_matches_budgeted_with_no_budgets(self):
        rng = random.Random(7)
        for _ in range(20):
            oracle = from_offspring(random_offspring_sequence(rng, 60))
            plain = reverse_search(oracle, "n0")
            budgeted = budgeted_search(oracle, "n0")
            assert plain == budgeted.count
            assert budgeted.unexplored == []

    def test_subtree_start_reports_only_that_subtree(self):
        oracle = complete_binary_depth3()
        result, emitted = collect(oracle, "a")
        assert result.count == 6
        assert {v for v, _ in emitted} == subtree_vertices(oracle, "a")


class TestDepthBudget:
    def test_depth_one_flags_both_children(self):
        result, emitted = collect(complete_binary_depth3(), "r", max_depth=1)
        assert result.count == 2
        assert result.unexplored == ["a", "b"]
        assert emitted == [("a", True), ("b", True)]

    def test_no_emission_below_max_depth(self):
        _, emitted = collect(complete_binary_depth3(), "r", max_depth=2)
        depth = {"a": 1, "b": 1, "aa": 2, "ab": 2, "ba": 2, "bb": 2}
        assert all(v in depth for v, _ in emitted)
        assert {v for v, f in emitted if f} == {"aa", "ab", "ba", "bb"}


class TestNodeBudget:
    def test_budget_five_on_fifteen_vertex_tree(self):
        # Hand trace of the budgeted traversal, confirmed by the partition
        # check below: the 5th forward step (ab) is flagged, then the one
        # remaining backtrack-path sibling (b) is also stepped into and
        # flagged, so the count ends at 6 and two subtrees come back.
        result, emitted = collect(complete_binary_depth3(), "r", max_nodes=5)
        assert result.count == 6
        assert result.unexplored == ["ab", "b"]
        assert [v for v, f in emitted if not f] == ["a", "aa", "aaa", "aab"]
        # finishing the unexplored subtrees yields the missing 14 - 6 = 8
        total = result.count
        for u in result.unexplored:
            total += reverse_search(complete_binary_depth3(), u)
        assert total == 14

    def test_flagged_vertices_are_never_descended(self):
        result, emitted = collect(complete_binary_depth3(), "r", max_nodes=5)
        flagged = [v for v, f in emitted if f]
        assert flagged == result.unexplored
        emitted_set = {v for v, _ in emitted}
        for u in result.unexplored:
            oracle = complete_binary_depth3()
            assert not (subtree_vertices(oracle, u) & emitted_set)

    def test_flag_monotonic_after_budget_hit(self):
        rng = random.Random(21)
        for _ in range(30):
            oracle = from_offspring(random_offspring_sequence(rng, 80))
            budget = rng.randrange(1, 12)
            _, emitted = collect(oracle, "n0", max_nodes=budget)
            flags = [f for _, f in emitted]
            if True in flags:
                first = flags.index(True)
                assert all(flags[first:])

    def test_partition_over_random_trees_and_budgets(self):
        rng = random.Random(99)
        for _ in range(40):
            oracle = from_offspring(random_offspring_sequence(rng, 80))
            full = subtree_vertices(oracle, "n0")
            budget = rng.randrange(1, 14)
            result, emitted = collect(oracle, "n0", max_nodes=budget)
            seen = [v for v, _ in emitted]
            assert len(seen) == len(set(seen)) == result.count
            covered = set(seen)
            for u in result.unexplored:
                sub = subtree_vertices(oracle, u)
                assert not (sub & covered)
                covered |= sub
            assert covered == full
            assert result.count <= budget + len(result.unexplored)


class TestPruneFilter:
    def test_leaf_dropped_in_mode_zero(self):
        oracle = complete_binary_depth3()
        kept, emitted = prune_filter(oracle, ["aaa"], 0)
        assert kept == [] and emitted == []

    def test_branch_vertex_unchanged_in_both_modes(self):
        oracle = complete_binary_depth3()
        for mode in (0, 1):
            kept, emitted = prune_filter(oracle, ["a"], mode)
            assert kept == ["a"] and emitted == []

    def test_chain_walk_in_mode_one(self):
        # r -> c1 -> c2 -> c3 -> branch with two leaf children
        children = {
            "r": ["c1"],
            "c1": ["c2"],
            "c2": ["c3"],
            "c3": ["br"],
            "br": ["x", "y"],
            "x": [],
            "y": [],
        }
        oracle = ExplicitTreeOracle(children)
        kept, emitted = prune_filter(oracle, ["r"], 1)
        assert kept == ["br"]
        assert emitted == ["c1", "c2", "c3", "br"]

    def test_chain_to_leaf_returns_nothing(self):
        children = {"r": ["c1"], "c1": ["c2"], "c2": []}
        oracle = ExplicitTreeOracle(children)
        kept, emitted = prune_filter(oracle, ["r"], 1)
        assert kept == []
        assert emitted == ["c1", "c2"]

    def test_mode_zero_keeps_single_child_vertices(self):
        children = {"r": ["c1"], "c1": []}
        oracle = ExplicitTreeOracle(children)
        kept, emitted = prune_filter(oracle, ["r"], 0)
        assert kept == ["r"] and emitted == []

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            prune_filter(complete_binary_depth3(), [], 2)


class TestConsistencyGuard:
    def test_lying_children_override_aborts_instead_of_hanging(self):
        class LyingChildren(AdjacencyOracle):
            max_degree = 1

            def root(self):
                return 0

            def adjacent(self, vertex, j):
                return None

            def parent(self, vertex):
                return None

            def children(self, vertex):
                return itertools.count(vertex + 1)  # endless non-children

        # budgeted: flags siblings forever, caught by the flagged-vertex cap,
        # which scales with the node budget (1000 flags here, 2000 at 200)
        for max_nodes in (1, 200):
            with pytest.raises(OracleConsistencyError):
                budgeted_search(LyingChildren(), 0, max_nodes=max_nodes)

    @settings(max_examples=200, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.integers(1, 50),
        st.none() | st.integers(1, 4),
        st.integers(0, 79),
    )
    def test_unflagged_steps_stay_below_the_node_budget(self, rng, max_nodes, max_depth, pick):
        # why unflagged steps need no guard: on a tree they never reach max_nodes
        oracle = from_offspring(random_offspring_sequence(rng, 80))
        vertices = ["n0", *subtree_vertices(oracle, "n0")]
        start = sorted(vertices)[pick % len(vertices)]
        result = budgeted_search(oracle, start, max_depth=max_depth, max_nodes=max_nodes)
        assert result.count - len(result.unexplored) < max_nodes

    def test_legitimate_wide_star_is_not_flagged_as_inconsistent(self):
        children = {"r": [f"k{i}" for i in range(40)]}
        children.update({f"k{i}": [] for i in range(40)})
        oracle = ExplicitTreeOracle(children)
        result = budgeted_search(oracle, "r", max_nodes=1)
        assert result.count == 40  # one real visit, 39 flagged siblings
        assert len(result.unexplored) == 40
