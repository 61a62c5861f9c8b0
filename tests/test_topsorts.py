import io
import math
import random
import time

import pytest

from btsearch.budget import SchedulerConfig
from btsearch.engine import run
from btsearch.errors import InputFormatError, NodeDecodeError
from btsearch.reverse_search import reverse_search
from btsearch.apps.topsorts import (
    Poset,
    TopsortsApplication,
    TopsortsOracle,
    count_extensions,
    format_poset,
    parse_poset,
)

from oracles import antichain, bipartite_poset, brute_force_extensions, random_poset, total_order


def static_config(max_depth, max_nodes, num_workers=2, **kw):
    return SchedulerConfig(
        num_workers=num_workers,
        base_max_depth=max_depth,
        base_max_nodes=max_nodes,
        scale=1,
        lmin=math.inf,
        lmax=math.inf,
        **kw,
    )


class TestParse:
    def test_basic_input(self):
        poset = parse_poset(b"3 1\n1 2\n")
        assert poset.n == 3
        assert poset.relations == frozenset({(1, 2)})

    def test_empty_input_rejected(self):
        with pytest.raises(InputFormatError):
            parse_poset(b"")

    def test_cycle_rejected(self):
        with pytest.raises(InputFormatError, match="cycle"):
            parse_poset(b"3 3\n1 2\n2 3\n3 1\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_poset(b"3 1\n1 4\n")

    def test_relation_count_mismatch_rejected(self):
        with pytest.raises(InputFormatError):
            parse_poset(b"3 2\n1 2\n")

    def test_format_round_trips(self):
        poset = bipartite_poset(2, 3)
        assert parse_poset(format_poset(poset)) == poset


class TestOracle:
    def test_root_is_greedy_lexicographic_minimum(self):
        oracle = TopsortsOracle(parse_poset(b"3 1\n3 1\n"))
        # 3 must precede 1; smallest-available greedy gives 2, 3, 1
        assert oracle.root() == (2, 3, 1)
        assert min(brute_force_extensions(Poset(3, frozenset({(3, 1)})))) == (2, 3, 1)

    def test_tree_spans_exactly_the_extensions(self):
        rng = random.Random(11)
        cases = [antichain(3), total_order(4), bipartite_poset(2, 2)]
        cases += [random_poset(rng, n) for n in (4, 5, 6) for _ in range(6)]
        for poset in cases:
            oracle = TopsortsOracle(poset)
            seen = []
            count = reverse_search(oracle, oracle.root(), sink=lambda v, f: seen.append(v))
            expected = brute_force_extensions(poset)
            assert count == len(expected) - 1  # root not emitted by the traversal
            assert sorted(seen + [oracle.root()]) == sorted(expected)

    def test_every_parent_step_is_a_valid_adjacency(self):
        rng = random.Random(13)
        for _ in range(10):
            poset = random_poset(rng, 5)
            oracle = TopsortsOracle(poset)
            for perm in brute_force_extensions(poset):
                if perm == oracle.root():
                    assert oracle.parent(perm) is None
                    continue
                parent, j = oracle.parent(perm)
                assert oracle.adjacent(parent, j) == perm
                assert oracle.is_vertex(parent)

    def test_total_order_has_single_vertex_tree(self):
        oracle = TopsortsOracle(total_order(4))
        assert reverse_search(oracle, oracle.root()) == 0


    def test_init_of_a_large_sparse_poset_is_fast(self):
        # the closure and root take one topological pass, not n^2 steps
        start = time.perf_counter()
        oracle, _root = TopsortsApplication().init(b"20000 0\n")
        assert time.perf_counter() - start < 1.0
        assert oracle.root() == tuple(range(1, 20001))

    def test_a_long_chain_has_its_one_extension(self):
        n = 20_500
        chain = "".join(f"{a} {a + 1}\n" for a in range(1, n))
        oracle, _root = TopsortsApplication().init(f"{n} {n - 1}\n{chain}".encode())
        assert oracle.root() == tuple(range(1, n + 1))
        assert oracle.adjacent(oracle.root(), n // 2) is None  # no swap is legal

    def test_a_header_too_large_to_allocate_is_an_input_error(self):
        with pytest.raises(InputFormatError, match="too many to allocate"):
            TopsortsApplication().init(b"99999999999999999999 0\n")

    def test_init_computes_the_closure_once(self, monkeypatch):
        import btsearch.apps.topsorts as topsorts

        calls = []
        real = topsorts._closure
        monkeypatch.setattr(topsorts, "_closure", lambda poset: calls.append(poset) or real(poset))
        TopsortsApplication().init(b"3 1\n1 2\n")
        assert len(calls) == 1
        with pytest.raises(InputFormatError, match="cycle"):
            parse_poset(b"3 3\n1 2\n2 3\n3 1\n")


class TestApplication:
    def test_count_examples(self):
        assert count_extensions(antichain(3)) == 6
        assert count_extensions(total_order(4)) == 1
        assert count_extensions(bipartite_poset(2, 2)) == 4
        assert count_extensions(bipartite_poset(3, 3)) == 36

    def test_no_duplicate_outputs(self):
        out = io.StringIO()
        run(TopsortsApplication(), format_poset(antichain(4)).encode(), static_config(2, 3, 4), out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 24
        assert len(set(lines)) == 24

    def test_count_invariance_workers_prune_budgets(self):
        poset = bipartite_poset(2, 3)
        expected = len(brute_force_extensions(poset))
        for workers in (1, 4):
            for prune in ("off", "0", "1"):
                for max_depth, max_nodes in ((2, 10), (None, 5000)):
                    cfg = static_config(max_depth, max_nodes, num_workers=workers)
                    app = TopsortsApplication(prune=prune)
                    report = run(app, format_poset(poset).encode(), cfg)
                    assert report.total_output_count == expected, (workers, prune, max_depth)

    def test_outputs_are_valid_extensions(self):
        poset = bipartite_poset(2, 2)
        out = io.StringIO()
        run(TopsortsApplication(), format_poset(poset).encode(), static_config(None, 3), out)
        oracle = TopsortsOracle(poset)
        for line in out.getvalue().splitlines():
            assert oracle.is_vertex(tuple(int(t) for t in line.split()))

    def test_node_round_trip(self):
        app = TopsortsApplication()
        gd, root = app.init(format_poset(bipartite_poset(2, 2)).encode())
        vertex = app.decode_node(root, gd)
        assert app.encode_node(vertex) == root

    def test_search_is_stateless(self):
        from btsearch.budget import Budget

        app = TopsortsApplication()
        gd, root = app.init(format_poset(antichain(4)).encode())
        budget = Budget(max_depth=None, max_nodes=5)
        first = app.search(gd, root, budget, ())
        second = app.search(gd, root, budget, ())
        assert first == second

    def test_decode_rejects_garbage(self):
        app = TopsortsApplication()
        gd, _ = app.init(b"3 0\n")
        with pytest.raises(NodeDecodeError):
            app.decode_node(b"1 2", gd)  # wrong length
        with pytest.raises(NodeDecodeError):
            app.decode_node(b"not numbers", gd)
        with pytest.raises(NodeDecodeError):
            app.decode_node(b"1 1 2", gd)  # not a permutation

    def test_decode_rejects_non_extension(self):
        app = TopsortsApplication()
        gd, _ = app.init(b"2 1\n1 2\n")
        with pytest.raises(NodeDecodeError):
            app.decode_node(b"2 1", gd)  # violates 1 before 2
