"""Property tests of the bundled applications over random small inputs.

Hypothesis draws connected graphs and posets on at most 7 vertices and
small Galton-Watson-style trees.  Each bundled oracle's ``children()``
override must agree with the default derived from ``adjacent``/``parent``
on every vertex, and a budgeted job loop must partition the objects that
the independent oracles in ``oracles.py`` count.  Every application's
``decode_node`` must reject arbitrary bytes with ``NodeDecodeError`` and
must give back every vertex (or sat assumption) its payload encodes.  A
static-budget ``engine.run`` must give the same output and frequency
multisets at 1, 2 and 3 workers.  The sat, spantree and topsorts input
parsers must reject arbitrary bytes with ``InputFormatError`` alone.
"""

import io
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btsearch.apps import APPLICATION_NAMES, build_application

from btsearch.apps.base import encode_ints
from btsearch.apps.gwtree import GWTreeApplication, GWTreeOracle, subtree_sizes
from btsearch.apps.sat.app import SatApplication
from btsearch.apps.sat.dimacs import CnfFormula
from btsearch.apps.spantree import Graph, SpantreeApplication, SpantreeOracle, format_graph
from btsearch.apps.topsorts import Poset, TopsortsApplication, TopsortsOracle, format_poset
from btsearch.budget import Budget, SchedulerConfig
from btsearch.engine import run
from btsearch.errors import InputFormatError, NodeDecodeError
from btsearch.reverse_search import AdjacencyOracle, reverse_search

from oracles import brute_force_extensions, matrix_tree_count, random_offspring_sequence

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def posets(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    pairs = [(order[i], order[k]) for i in range(n) for k in range(i + 1, n)]
    relations = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Poset(n=n, relations=frozenset(relations))


@st.composite
def connected_graphs(draw, max_n=7, max_extra=4):
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}  # a spanning tree
    others = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges]
    if others:
        edges |= draw(st.sets(st.sampled_from(others), max_size=max_extra))
    # edge order sets the oracle's indices, so shuffle it
    return Graph(n=n, edges=tuple(draw(st.permutations(sorted(edges)))))


@st.composite
def gw_oracles(draw, max_size=80):
    xi = random_offspring_sequence(draw(st.randoms(use_true_random=False)), max_size)
    return GWTreeOracle(subtree_sizes(np.array(xi, dtype=np.int64)))


@st.composite
def sat_assumptions(draw, max_vars=12):
    """A formula's variable count and a consistent assumption over it."""
    n = draw(st.integers(1, max_vars))
    variables = draw(st.lists(st.integers(1, n), unique=True))
    return n, tuple(v * draw(st.sampled_from((1, -1))) for v in variables)


budgets = st.builds(
    Budget,
    max_depth=st.none() | st.integers(1, 4),
    max_nodes=st.none() | st.integers(1, 20),
    kind=st.just("nodes"),  # builds() fills every NamedTuple field, defaults too
)


def assert_children_match_default(oracle: AdjacencyOracle) -> int:
    """Full traversal; returns the vertex count, root included."""
    vertices = [oracle.root()]
    reverse_search(oracle, oracle.root(), sink=lambda v, flagged: vertices.append(v))
    for v in vertices:
        assert list(oracle.children(v)) == list(AdjacencyOracle.children(oracle, v)), v
    return len(vertices)


def job_partition(app, input_bytes: bytes, budget: Budget) -> list[str]:
    """Every output line of a FIFO budgeted job loop run through ``app.search``."""
    global_data, root = app.init(input_bytes)
    jobs = deque([root])
    lines: list[str] = []
    while jobs:
        result = app.search(global_data, jobs.popleft(), budget, [])
        lines += result.outputs
        jobs.extend(result.unexplored)
    return lines


@PROPERTY_SETTINGS
@given(connected_graphs())
def test_spantree_children_match_default(graph):
    assert assert_children_match_default(SpantreeOracle(graph)) == matrix_tree_count(graph)


@PROPERTY_SETTINGS
@given(posets())
def test_topsorts_children_match_default(poset):
    assert assert_children_match_default(TopsortsOracle(poset)) == len(brute_force_extensions(poset))


@PROPERTY_SETTINGS
@given(posets())
def test_topsorts_root_is_the_smallest_extension(poset):
    assert TopsortsOracle(poset).root() == min(brute_force_extensions(poset))


@PROPERTY_SETTINGS
@given(gw_oracles())
def test_gwtree_children_match_default(oracle):
    assert assert_children_match_default(oracle) == oracle.n


@PROPERTY_SETTINGS
@given(connected_graphs(), budgets, st.sampled_from(["off", "0", "1"]))
def test_spantree_job_partition(graph, budget, prune):
    app = SpantreeApplication(prune=prune)
    lines = job_partition(app, format_graph(graph).encode("ascii"), budget)
    assert len(lines) == len(set(lines)) == matrix_tree_count(graph)


@PROPERTY_SETTINGS
@given(posets(), budgets, st.sampled_from(["off", "0", "1"]))
def test_topsorts_job_partition(poset, budget, prune):
    app = TopsortsApplication(prune=prune)
    lines = job_partition(app, format_poset(poset).encode("ascii"), budget)
    assert len(lines) == len(set(lines)) == len(brute_force_extensions(poset))


DECODE_INPUTS = {
    "topsorts": b"4 2\n1 2\n3 4\n",
    "spantree": b"4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
    "gwtree": b"catalan 20 40 7\n",
    "sat": b"p cnf 3 2\n1 -2 0\n2 3 0\n",
}


@pytest.mark.parametrize("name", APPLICATION_NAMES)
@PROPERTY_SETTINGS
@given(payload=st.binary(max_size=24) | st.text("0123456789 -", max_size=24).map(str.encode))
@example(payload=b"\xff")
def test_decode_node_rejects_garbage_with_node_decode_error(name, payload):
    app = build_application(name)
    global_data, _root = app.init(DECODE_INPUTS[name])
    try:
        app.decode_node(payload, global_data)
    except NodeDecodeError:
        pass


@PROPERTY_SETTINGS
@given(
    st.one_of(
        posets().map(lambda p: (TopsortsApplication(), TopsortsOracle(p))),
        connected_graphs().map(lambda g: (SpantreeApplication(), SpantreeOracle(g))),
        gw_oracles().map(lambda o: (GWTreeApplication(), o)),
        sat_assumptions().map(lambda a: (SatApplication(), a)),
    )
)
def test_every_payload_decodes_to_the_vertex_it_encodes(case):
    app, data = case
    if isinstance(app, SatApplication):
        num_vars, assumption = data
        formula = CnfFormula(num_vars=num_vars, clauses=())
        assert app.decode_node(encode_ints(assumption), formula) == assumption
        return
    vertices = [data.root()]
    reverse_search(data, data.root(), sink=lambda v, flagged: vertices.append(v))
    for v in vertices:
        assert app.decode_node(app.encode_node(v), data) == v


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(
        posets().map(lambda p: ("topsorts", format_poset(p))),
        connected_graphs().map(lambda g: ("spantree", format_graph(g))),
    ),
    st.none() | st.integers(1, 3),
    st.integers(1, 6),
)
def test_static_budget_runs_are_invariant_to_the_worker_count(case, max_depth, max_nodes):
    name, text = case
    keys = []
    for workers in (1, 2, 3):
        config = SchedulerConfig(
            num_workers=workers,
            base_max_depth=max_depth,
            base_max_nodes=max_nodes,
            scale=1,
            lmin=math.inf,
            lmax=math.inf,
        )
        out = io.StringIO()
        report = run(build_application(name, prune="off"), text.encode("ascii"), config, out)
        keys.append((sorted(out.getvalue().splitlines()), sorted(report.frequencies)))
    assert keys[0] == keys[1] == keys[2]


# Words that the DIMACS, graph and poset readers give a meaning to, plus
# numbers at and past their edges, joined into lines of text.
_WORDS = st.sampled_from(
    ["p", "cnf", "c", "%", "#", "0", "-0", "+1", "1_0", "-1", "x", "\x00", "\xff",
     "100001", "99999999999999999999", "9" * 5000]
) | st.integers(-3, 9).map(str)
_LINES = st.lists(st.lists(_WORDS, max_size=5).map(" ".join), max_size=6).map("\n".join)


@settings(max_examples=300, deadline=None)
@example("topsorts", b"99999999999999999999 0")  # an O(n) allocation raised OverflowError
@given(
    st.sampled_from(["sat", "spantree", "topsorts"]),
    st.binary(max_size=64) | _LINES.map(lambda text: text.encode("latin-1")),
)
def test_input_parsers_raise_only_input_format_error(name, data):
    # any other exception escapes ``btsearch run`` as a traceback instead of exit 2
    try:
        build_application(name).init(data)
    except InputFormatError:
        pass
