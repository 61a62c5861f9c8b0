"""The benchmark's workloads: seeded inputs, CLI invocations, output checks.

``prepare`` turns (workload, seed) into input files plus everything needed
to judge the program's output.  The exact answer is computed here, during
set-up and outside any timed region, by an independent route (see
``exact.py``) or, for SAT, once by an unbudgeted single solver.
README.md next to this file says why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import exact

Check = Callable[[list[str]], list[str]]


@dataclass
class Case:
    """One generated input and the CLI invocations that process it in turn.

    ``check`` maps the stdout of every invocation to a list of problems;
    an empty list means the output is correct.
    """

    input_path: Path
    invocations: list[list[str]]
    check: Check


@dataclass
class Prepared:
    """One workload at one seed: its cases, the app that runs them, and
    the base node budget that tells the traced run the budget tiers apart."""

    app: str
    app_options: dict
    cases: list[Case]
    base_max_nodes: int
    notes: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# spantree-count
# --------------------------------------------------------------------------


def _random_connected_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Random labelled spanning tree plus random extra edges, shuffled."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    spare = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges]
    edges.update(rng.sample(spare, m - (n - 1)))
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in sorted(edges)]
    rng.shuffle(out)
    return out


def _spantree(rng: random.Random, workdir: Path, tiny: bool) -> Prepared:
    # Fixed n and m keep the oracle degree (n-1)(m-n+1) constant; the tree
    # count is held in a narrow window so seeds differ in shape, not size.
    n, m, lo, hi = (6, 9, 60, 80) if tiny else (8, 14, 790, 810)
    while True:
        edges = _random_connected_graph(rng, n, m)
        trees = exact.count_spanning_trees(n, edges)
        if lo <= trees <= hi:
            break
    path = workdir / "graph.txt"
    path.write_text(f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges))

    def check(outputs: list[str]) -> list[str]:
        lines = outputs[0].splitlines()
        return [] if lines == [str(trees)] else [f"count output {lines[:3]!r}, expected {trees}"]

    case = Case(path, [["-countonly"]], check)
    return Prepared("spantree", {"count_only": True}, [case], 5000, {"trees": trees})


# --------------------------------------------------------------------------
# topsorts-lines
# --------------------------------------------------------------------------


def _random_poset(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return sorted(
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    )


def _topsorts(rng: random.Random, workdir: Path, tiny: bool) -> Prepared:
    # Both the extension count and the elements parent() examines per
    # extension (which varies sixfold between posets of equal count) are
    # held in windows, so seeds differ in shape but not in work.
    n, lo, hi = (6, 40, 80) if tiny else (11, 30_000, 31_000)
    while True:
        relations = _random_poset(rng, n, 0.2)
        extensions = exact.count_linear_extensions(n, relations)
        if lo <= extensions <= hi and (
            tiny or 32 <= exact.greedy_scan_steps(n, relations) / extensions <= 42
        ):
            break
    path = workdir / "poset.txt"
    path.write_text(f"{n} {len(relations)}\n" + "".join(f"{a} {b}\n" for a, b in relations))

    def check(outputs: list[str]) -> list[str]:
        return exact.extension_line_errors(n, relations, outputs[0].splitlines(), extensions)

    case = Case(path, [[]], check)
    return Prepared("topsorts", {}, [case], 5000, {"extensions": extensions})


# --------------------------------------------------------------------------
# gwtree-smalljobs
# --------------------------------------------------------------------------

GW_BUDGET = 20


def _gwtree(rng: random.Random, workdir: Path, tiny: bool) -> Prepared:
    from btsearch.apps.gwtree import (
        make_law,
        run_budgeted_jobs,
        sample_offspring_sequence,
        subtree_sizes,
    )
    from btsearch.errors import InputFormatError

    target = 500 if tiny else 20_000
    lo, hi = target - target // 50, target + target // 50
    law = make_law("catalan")
    # Keep only sampler seeds whose first attempt lands in the window, so
    # the program's own sampling in init() costs the same on every seed.
    sampler_seed = rng.randrange(2**31)
    while True:
        try:
            xi = sample_offspring_sequence(law, lo, hi, rng=sampler_seed, max_attempts=1)
            break
        except InputFormatError:
            sampler_seed += 1
    nodes = len(xi)
    sizes = subtree_sizes(xi)
    if int(sizes[0]) != nodes:
        raise RuntimeError("subtree_sizes disagrees with the sampled tree size")
    jobs = run_budgeted_jobs(sizes, GW_BUDGET).jobs
    path = workdir / "gwtree.txt"
    path.write_text(f"catalan {lo} {hi} {sampler_seed}\n")
    ckpt = workdir / "gwtree.ckpt"
    common = ["-countonly", "-maxnodes", str(GW_BUDGET), "-scale", "1", "-maxd", "inf"]
    invocations = [
        common + ["-checkpoint", str(ckpt), "-stopafter", str(max(1, jobs // 2))],
        common + ["-restart", str(ckpt)],
    ]

    def check(outputs: list[str]) -> list[str]:
        parts = [text.splitlines() for text in outputs]
        if any(len(p) != 1 or not p[0].isdigit() for p in parts):
            return [f"count outputs {[p[:3] for p in parts]!r} are not one integer each"]
        first, second = (int(p[0]) for p in parts)
        if first + second != nodes:
            return [f"stopped {first} + resumed {second} != {nodes} nodes"]
        if not 0 < first < nodes:
            return [f"first run counted {first} of {nodes}: it did not stop part-way"]
        return []

    case = Case(path, invocations, check)
    notes = {"nodes": nodes, "jobs": jobs}
    return Prepared("gwtree", {"count_only": True}, [case], GW_BUDGET, notes)


# --------------------------------------------------------------------------
# sat-unsat
# --------------------------------------------------------------------------

SAT_CONFLICT_LIMIT = 20


def _random_cnf(rng: random.Random, n: int, forced: int) -> tuple[int, list[tuple[int, ...]]]:
    """A random 3-CNF on n variables at ratio 4.26, plus ``forced`` gadgets.

    Gadget i is a pair (g, a) with clauses (-g a) (-g -a), so g is false.
    The pairs take the lowest variable indices, which the solver branches
    on first: the first job learns each -g as a unit clause, and the
    shared-token relay carries those units to every other job.
    """
    low = list(range(1, 2 * forced + 1))
    high = list(range(2 * forced + 1, n + 2 * forced + 1))
    rng.shuffle(low)
    rng.shuffle(high)
    clauses = [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(high, 3))
        for _ in range(round(4.26 * n))
    ]
    for g, a in zip(low[::2], low[1::2]):
        clauses += [(-g, a), (-g, -a)]
    rng.shuffle(clauses)
    return n + 2 * forced, clauses


def _sat(rng: random.Random, workdir: Path, tiny: bool) -> Prepared:
    from btsearch.apps.sat.dimacs import CnfFormula, parse_dimacs, verify_model
    from btsearch.apps.sat.solver import solve_budgeted

    # Formulas are kept when UNSAT and when one unbudgeted solver needs a
    # conflict count inside the window, which evens out hardness by seed.
    n, batch, lo, hi = (20, 2, 1, 60) if tiny else (80, 3, 600, 900)
    cases = []
    conflicts = []
    while len(cases) < batch:
        num_vars, clauses = _random_cnf(rng, n, forced=6)
        outcome = solve_budgeted(CnfFormula(num_vars, tuple(clauses)))
        if outcome.status != "unsat" or not lo <= outcome.conflicts <= hi:
            continue
        path = workdir / f"formula{len(cases)}.cnf"
        path.write_text(
            f"p cnf {num_vars} {len(clauses)}\n"
            + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
        )
        formula = parse_dimacs(path.read_bytes())

        def check(outputs: list[str], formula=formula) -> list[str]:
            lines = outputs[0].splitlines()
            if lines == ["s UNSATISFIABLE"]:
                return []
            if lines[:1] == ["s SATISFIABLE"] and len(lines) == 2 and lines[1].startswith("v "):
                model = [int(tok) for tok in lines[1].split()[1:] if tok != "0"]
                valid = "valid" if verify_model(formula, model) else "invalid"
                return [f"{valid} model reported for a formula proved UNSAT in set-up"]
            return [f"verdict output {lines[:3]!r}, expected ['s UNSATISFIABLE']"]

        flags = ["-budgetkind", "conflicts", "-maxnodes", str(SAT_CONFLICT_LIMIT)]
        cases.append(Case(path, [flags], check))
        conflicts.append(outcome.conflicts)
    return Prepared("sat", {}, cases, SAT_CONFLICT_LIMIT, {"solo_conflicts": conflicts})


WORKLOADS = {
    "spantree-count": _spantree,
    "topsorts-lines": _topsorts,
    "gwtree-smalljobs": _gwtree,
    "sat-unsat": _sat,
}


def prepare(name: str, seed: int, workdir: Path, tiny: bool = False) -> Prepared:
    """Generate the inputs of workload ``name`` from ``seed`` into ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, workdir, tiny)
