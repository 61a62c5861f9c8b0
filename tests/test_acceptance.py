"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 6's first clause pins the published catalan growth-law
constant; the Monte-Carlo measurement contradicts that constant (it tracks
the direct offspring variance instead), so that check fails honestly and
reports both numbers.
"""

import io
import itertools
import math
import random
import time

import numpy as np
import pytest

from btsearch.budget import SchedulerConfig, select_budget
from btsearch.engine import run
from btsearch.metrics import compute_efficiency
from btsearch.apps.gwtree import (
    GWExperiment,
    make_law,
    run_budgeted_jobs,
    sample_offspring_sequence,
    subtree_sizes,
)
from btsearch.apps.sat.app import SatApplication
from btsearch.apps.sat.dimacs import verify_model
from btsearch.apps.spantree import SpantreeApplication, count_spanning_trees, format_graph
from btsearch.apps.topsorts import TopsortsApplication, count_extensions, format_poset

from oracles import (
    antichain,
    bipartite_poset,
    brute_force_extensions,
    brute_force_implied,
    brute_force_sat,
    cnf_text,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    matrix_tree_count,
    petersen_graph,
    pigeonhole_cnf,
    random_3cnf,
    random_connected_graph,
    random_poset,
)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def static_config(max_depth, max_nodes, num_workers=4, **kw):
    return SchedulerConfig(
        num_workers=num_workers,
        base_max_depth=max_depth,
        base_max_nodes=max_nodes,
        scale=1,
        lmin=math.inf,
        lmax=math.inf,
        **kw,
    )


def run_topsorts(poset, cfg, count_only=True, prune="off"):
    out = io.StringIO()
    app = TopsortsApplication(prune=prune, count_only=count_only)
    rep = run(app, format_poset(poset).encode(), cfg, out)
    return rep, out.getvalue()


def run_spantree(graph, cfg, count_only=True, prune="off"):
    out = io.StringIO()
    app = SpantreeApplication(prune=prune, count_only=count_only)
    rep = run(app, format_graph(graph).encode(), cfg, out)
    return rep, out.getvalue()


def test_criterion_1_topsorts_oracle_counts():
    start = time.monotonic()
    for n in range(1, 8):
        got = count_extensions(antichain(n))
        assert got == math.factorial(n), (n, got)
    for a in range(1, 6):
        for b in range(1, 6):
            got = count_extensions(bipartite_poset(a, b))
            assert got == math.factorial(a) * math.factorial(b), (a, b, got)
    rng = random.Random(20240809)
    tested = 0
    while tested < 20:
        poset = random_poset(rng, 8, density=0.4)
        expected = len(brute_force_extensions(poset))
        if expected > 2520:
            continue  # keep desk runtime in budget; posets stay random
        got = count_extensions(poset, SchedulerConfig(num_workers=4))
        assert got == expected, (poset, got, expected)
        tested += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "topsorts counts: antichains n<=7, K(a,b) a,b<=5, 20 random 8-element posets",
        elapsed < 60,
        f"all exact, {elapsed:.1f}s",
    )


def test_criterion_2_spantree_oracle_counts():
    start = time.monotonic()
    for n in range(3, 11):
        assert count_spanning_trees(cycle_graph(n)) == n
    assert count_spanning_trees(complete_graph(4)) == 16
    assert count_spanning_trees(complete_bipartite_graph(3, 3)) == 81
    assert count_spanning_trees(complete_graph(5)) == 125
    assert count_spanning_trees(petersen_graph()) == 2000
    rng = random.Random(77)
    for _ in range(20):
        graph = random_connected_graph(rng, 7, rng.randrange(0, 5))
        expected = matrix_tree_count(graph)
        got = count_spanning_trees(graph, SchedulerConfig(num_workers=4))
        assert got == expected, (graph, got, expected)
    elapsed = time.monotonic() - start
    report(
        2,
        "spantree counts: cycles, K4, K33, K5, Petersen, 20 random 7-vertex graphs",
        elapsed < 60,
        f"all exact vs matrix-tree determinant, {elapsed:.1f}s",
    )


def test_criterion_3_determinism_across_worker_counts():
    poset = bipartite_poset(4, 4)
    baseline = None
    for workers in (1, 2, 4, 8):
        cfg = static_config(None, 50, num_workers=workers)
        rep, text = run_topsorts(poset, cfg, count_only=False)
        key = ("\n".join(sorted(text.splitlines())), sorted(rep.frequencies))
        if baseline is None:
            baseline = key
        assert key == baseline, f"workers={workers} diverged"
    report(
        3,
        "K(4,4) static budget run is worker-count invariant (outputs and frequencies)",
        True,
        "identical for 1,2,4,8 workers",
    )


def test_criterion_4_partition_conservation():
    rng = random.Random(5)
    topsorts_instances = [antichain(4), bipartite_poset(3, 3), random_poset(rng, 7, 0.5)]
    spantree_instances = [cycle_graph(5), complete_graph(4), complete_bipartite_graph(3, 3)]
    budgets = [(2, 10), (None, 50), (None, 5000)]
    for poset in topsorts_instances:
        reference = sum(run_topsorts(poset, static_config(None, None, 1))[0].frequencies)
        for max_depth, max_nodes in budgets:
            rep, text = run_topsorts(poset, static_config(max_depth, max_nodes), count_only=False)
            assert sum(rep.frequencies) == reference, (poset, max_depth, max_nodes)
            lines = text.splitlines()
            assert len(lines) == len(set(lines)), "duplicate outputs"
    for graph in spantree_instances:
        reference = sum(run_spantree(graph, static_config(None, None, 1))[0].frequencies)
        for max_depth, max_nodes in budgets:
            rep, text = run_spantree(graph, static_config(max_depth, max_nodes), count_only=False)
            assert sum(rep.frequencies) == reference, (graph, max_depth, max_nodes)
            lines = text.splitlines()
            assert len(lines) == len(set(lines)), "duplicate outputs"
    report(
        4,
        "sum of per-job frequencies equals the unbudgeted node count; no duplicates",
        True,
        "6 instances x 3 budgets",
    )


def test_criterion_5_budget_policy_values():
    cfg = SchedulerConfig(num_workers=12)
    checks = [
        (5, (2, 5000)),
        (20, (None, 5000)),
        (50, (None, 200000)),
    ]
    for joblist_len, expected in checks:
        b = select_budget(joblist_len, cfg)
        assert (b.max_depth, b.max_nodes) == expected, (joblist_len, b)
    report(5, "budget policy reproduces the three published example values", True)


@pytest.fixture(scope="module")
def gw_measurements():
    """Twenty catalan trees of 1e6..3e6 nodes, each measured at b=5000 and b=10000.

    Each tree is sampled once, as ``measure_joblist_ratio`` would with seed
    60, and both budgets run on it, so the scaling check is paired.  Returns
    the mean unexplored/size ratio at each budget and the elapsed seconds.
    """
    start = time.monotonic()
    law = make_law("catalan")
    lo, hi = GWExperiment(law=law, target_size=2_000_000, budget=5000, trials=20).window()
    ratios: dict[int, list[float]] = {5000: [], 10000: []}
    for trial in range(20):
        rng = np.random.default_rng([60, trial])
        sizes = subtree_sizes(sample_offspring_sequence(law, lo, hi, rng))
        assert len(sizes) >= 1_000_000
        for budget, row in ratios.items():
            stats = run_budgeted_jobs(sizes, budget)
            row.append(stats.unexplored_total / stats.tree_size)
    base, doubled = (sum(row) / len(row) for row in ratios.values())
    return base, doubled, time.monotonic() - start


@pytest.mark.slow
def test_criterion_6_budget_scaling(gw_measurements):
    base, doubled, elapsed = gw_measurements
    factor = doubled / base
    report(
        6,
        "budget doubling scales the ratio by ~1/sqrt(2), runtime under 10 min",
        0.65 <= factor <= 0.77 and elapsed < 600,
        f"factor {factor:.3f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_6_pinned_catalan_constant(gw_measurements):
    base, _, _ = gw_measurements
    law = make_law("catalan")
    pinned = math.sqrt(3 * math.pi / (16 * 5000))
    variance_based = math.sqrt(math.pi * law.variance / (8 * 5000))
    deviation = abs(base / pinned - 1.0)
    report(
        6,
        "catalan b=5000 mean ratio within 15% of sqrt(3*pi/16b) ~ 0.0109",
        deviation <= 0.15,
        f"measured {base:.6f} vs pinned {pinned:.6f} "
        f"(variance-based prediction {variance_based:.6f} fits within "
        f"{abs(base / variance_based - 1.0) * 100:.1f}%)",
    )


@pytest.mark.slow
def test_criterion_7_sat_verdict_matrix():
    start = time.monotonic()
    rng = random.Random(99)
    instances = []
    for _ in range(200):
        num_vars = rng.randrange(10, 15)
        ratio = rng.uniform(3.0, 5.0)
        instances.append(random_3cnf(rng, num_vars, int(num_vars * ratio)))
    instances.append(pigeonhole_cnf(3, 2))
    instances.append(pigeonhole_cnf(4, 3))
    expected = [brute_force_sat(cnf)[0] for cnf in instances]

    configs = list(itertools.product((1, 2, 4, 8), ("decisions", "conflicts"), (1, 10, None)))
    models_checked = 0
    clauses_checked = 0
    for idx, (cnf, expect_sat) in enumerate(zip(instances, expected)):
        data = cnf_text(cnf).encode()
        for workers, kind, limit in configs:
            cfg = static_config(None, limit, num_workers=workers)
            out = io.StringIO()
            rep = run(SatApplication(budget_kind=kind), data, cfg, out)
            lines = out.getvalue().splitlines()
            verdicts = [l for l in lines if l.startswith("s ")]
            assert len(verdicts) == 1, (idx, workers, kind, limit, lines)
            got_sat = verdicts[0] == "s SATISFIABLE"
            assert got_sat == expect_sat, (idx, workers, kind, limit)
            for line in lines:
                if line.startswith("v "):
                    model = tuple(int(t) for t in line.split()[1:-1])
                    assert verify_model(cnf, model), (idx, workers, kind, limit)
                    models_checked += 1
            for clause in rep.shared_tokens:
                assert brute_force_implied(cnf, clause), (idx, clause)
                clauses_checked += 1
    elapsed = time.monotonic() - start
    report(
        7,
        "202 instances x {1,2,4,8} workers x 2 budget kinds x limits {1,10,inf}",
        elapsed < 300,
        f"verdicts exact, {models_checked} models and {clauses_checked} shared clauses "
        f"verified, {elapsed:.0f}s",
    )


def test_criterion_8_checkpoint_restart_equivalence(tmp_path):
    poset = bipartite_poset(4, 4)
    full, _ = run_topsorts(poset, static_config(None, 40, num_workers=2))
    cp = tmp_path / "k44.ckpt"
    partial, _ = run_topsorts(
        poset,
        static_config(None, 40, num_workers=2, checkpoint_path=cp, stop_after_jobs=4),
    )
    assert not partial.completed
    assert cp.exists()
    resumed, _ = run_topsorts(poset, static_config(None, 40, num_workers=4, restart_path=cp))
    assert resumed.completed
    total = partial.total_output_count + resumed.total_output_count
    assert total == full.total_output_count == 576
    report(
        8,
        "interrupted K(4,4) run restarted from checkpoint reaches the full count",
        True,
        f"{partial.total_output_count} before + {resumed.total_output_count} after = 576",
    )


def test_criterion_9_efficiency_arithmetic():
    pm22 = compute_efficiency(12723, 192, 125)
    k89 = compute_efficiency(8957, 12, 859)
    ok = abs(pm22.efficiency - 0.530) <= 0.001 and abs(k89.efficiency - 0.869) <= 0.001
    report(
        9,
        "efficiency pairs reproduce 0.530 and 0.869 within 0.001",
        ok,
        f"got {pm22.efficiency:.4f} and {k89.efficiency:.4f}",
    )
