import io
import math
import random
import tracemalloc

import pytest

from btsearch.budget import SchedulerConfig
from btsearch.engine import run
from btsearch.errors import InputFormatError, NodeDecodeError
from btsearch.reverse_search import reverse_search
from btsearch.apps.spantree import (
    SpantreeApplication,
    SpantreeOracle,
    count_spanning_trees,
    format_graph,
    parse_graph,
)

from oracles import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    matrix_tree_count,
    petersen_graph,
    random_connected_graph,
)


def static_config(max_depth, max_nodes, num_workers=2):
    return SchedulerConfig(
        num_workers=num_workers,
        base_max_depth=max_depth,
        base_max_nodes=max_nodes,
        scale=1,
        lmin=math.inf,
        lmax=math.inf,
    )


class TestParse:
    def test_round_trip(self):
        graph = petersen_graph()
        assert parse_graph(format_graph(graph)) == graph

    def test_disconnected_rejected(self):
        with pytest.raises(InputFormatError, match="connected"):
            parse_graph(b"4 2\n1 2\n3 4\n")

    def test_self_loop_rejected(self):
        with pytest.raises(InputFormatError, match="self-loop"):
            parse_graph(b"2 2\n1 2\n2 2\n")

    def test_parallel_edge_rejected(self):
        with pytest.raises(InputFormatError, match="parallel"):
            parse_graph(b"2 2\n1 2\n2 1\n")

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(InputFormatError):
            parse_graph(b"3 3\n1 2\n2 3\n")

    def test_too_few_edges_rejected_before_allocating_for_n(self):
        # fewer than n - 1 edges cannot connect n vertices: say so from the header
        tracemalloc.start()
        try:
            with pytest.raises(InputFormatError, match="graph is not connected"):
                parse_graph(b"2000000 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestOracle:
    def test_root_is_lexicographically_least_tree(self):
        oracle = SpantreeOracle(complete_graph(4))
        # greedy by edge index: edges (1,2),(1,3),(1,4) have indices 0,1,2
        assert oracle.root() == (0, 1, 2)

    def test_parent_steps_shrink_distance_to_root(self):
        graph = complete_graph(4)
        oracle = SpantreeOracle(graph)
        rootset = set(oracle.root())
        tree = (2, 3, 5)  # edges (1,4),(2,3),(3,4)
        assert oracle.is_vertex(tree)
        steps = 0
        current = tree
        while current != oracle.root():
            parent, j = oracle.parent(current)
            assert oracle.adjacent(parent, j) == current
            assert len(set(parent) - rootset) == len(set(current) - rootset) - 1
            current = parent
            steps += 1
        assert steps == len(set(tree) - rootset)

    @pytest.mark.parametrize(
        "graph,expected",
        [
            (cycle_graph(3), 3),
            (cycle_graph(5), 5),
            (complete_graph(4), 16),
            (complete_bipartite_graph(3, 3), 81),
        ],
    )
    def test_enumeration_matches_known_counts(self, graph, expected):
        assert matrix_tree_count(graph) == expected  # oracle self-check
        oracle = SpantreeOracle(graph)
        seen = []
        reverse_search(oracle, oracle.root(), sink=lambda v, f: seen.append(v))
        trees = seen + [oracle.root()]
        assert len(trees) == len(set(trees)) == expected
        assert all(oracle.is_vertex(t) for t in trees)


class TestApplication:
    def test_counts_against_matrix_tree_determinant(self):
        rng = random.Random(3)
        cases = [cycle_graph(6), complete_graph(4)]
        cases += [random_connected_graph(rng, 6, rng.randrange(0, 5)) for _ in range(6)]
        for graph in cases:
            expected = matrix_tree_count(graph)
            got = count_spanning_trees(graph, static_config(2, 10, num_workers=4))
            assert got == expected

    def test_petersen_graph(self):
        assert matrix_tree_count(petersen_graph()) == 2000
        assert count_spanning_trees(petersen_graph()) == 2000

    def test_output_lines_are_sorted_unique_edge_lists(self):
        graph = complete_graph(4)
        out = io.StringIO()
        run(SpantreeApplication(), format_graph(graph).encode(), static_config(None, 3), out)
        lines = out.getvalue().splitlines()
        assert len(lines) == len(set(lines)) == 16
        for line in lines:
            indices = [int(t) for t in line.split()]
            assert indices == sorted(indices)
            assert all(1 <= i <= graph.m for i in indices)

    def test_prune_does_not_change_the_tree_set(self):
        graph = complete_bipartite_graph(2, 3)
        expected = matrix_tree_count(graph)
        for prune in ("off", "0", "1"):
            app = SpantreeApplication(prune=prune)
            out = io.StringIO()
            run(app, format_graph(graph).encode(), static_config(2, 4, num_workers=3), out)
            lines = out.getvalue().splitlines()
            assert len(lines) == len(set(lines)) == expected

    def test_node_round_trip_and_decode_errors(self):
        app = SpantreeApplication()
        gd, root = app.init(format_graph(cycle_graph(4)).encode())
        assert root == gd.root()
        assert app.decode_node(app.encode_node(root), gd) == root
        with pytest.raises(NodeDecodeError):
            app.decode_node(b"0 1 9", gd)  # edge index out of range
        with pytest.raises(NodeDecodeError):
            app.decode_node(b"0 3", gd)  # cycle edges 0 and 3 miss a vertex... wrong size
        with pytest.raises(NodeDecodeError):
            app.decode_node(b"junk", gd)
