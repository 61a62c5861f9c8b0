"""Property tests of the CDCL solver over random small CNFs.

The differential tests run ``reference_cdcl`` (the solver before its
propagation fast path) and ``btsearch.apps.sat.solver`` on the same random
formula, assumption, shared units, budget and options, and require every
outcome field to be identical: the fast path must do the same search.  The
solver takes shared units as one-literal clauses.  The reference knows no
relayed clauses, so it gets the longer ones appended to the formula and the
units after them, while the solver gets one list in learning order: a unit
reads no value of a longer clause when it is attached, so both orders leave
the same trail and watch lists.  A case branches by lowest index, or by
activity from all zeros or from the formula's occurrence counts (the sat
app's seed); the reference takes the last two as ``vsids=True`` and, as it
takes no seed, gets the counts written into its activity table before it
solves.  The reference runs without restarts, its default, as the solver
has none.  The brute-force test checks the solver's verdict, models
and learnt clauses against exhaustive enumeration in ``oracles.py``.
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cdcl
from btsearch.apps.sat import solver
from btsearch.apps.sat.dimacs import CnfFormula, verify_model

from oracles import brute_force_implied, brute_force_sat, occurrences

OUTCOME_FIELDS = (
    "status",
    "model",
    "splits",
    "learnt_units",
    "decisions",
    "conflicts",
    "global_unsat",
)


def random_cnf(rng: random.Random, num_vars: int, ratio: float, units: int) -> CnfFormula:
    """Mostly 3-literal clauses (some of width 2 or 4), plus ``units`` unit clauses."""
    clauses = []
    for _ in range(round(ratio * num_vars)):
        width = min(num_vars, rng.choice((2, 3, 3, 3, 3, 4)))
        clauses.append(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), width))
        )
    for _ in range(units):
        clauses.append((rng.choice((1, -1)) * rng.randint(1, num_vars),))
    rng.shuffle(clauses)
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def random_assumption(rng: random.Random, num_vars: int, size: int) -> tuple[int, ...]:
    chosen = rng.sample(range(1, num_vars + 1), min(size, num_vars))
    return tuple(v if rng.random() < 0.5 else -v for v in chosen)


@st.composite
def solver_cases(draw, max_vars, min_vars=1, ratios=(0.0, 6.0)):
    # a seeded generator: drawing each literal from hypothesis is far slower
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    num_vars = draw(st.integers(min_vars, max_vars))
    units = draw(st.sampled_from((0, 0, 1, 3)))
    cnf = random_cnf(rng, num_vars, draw(st.floats(*ratios)), units)
    assumption = random_assumption(rng, num_vars, draw(st.integers(0, 6)))
    return cnf, assumption, rng


# by lowest index, or by activity from all zeros or from the occurrence
# counts (the sat app's seed): a third of the examples each
BRANCHING = st.sampled_from(("lowest", "zeros", "seeded"))


def start_activity(cnf: CnfFormula, branching: str) -> list[int] | None:
    if branching == "lowest":
        return None
    return occurrences(cnf) if branching == "seeded" else [0] * (cnf.num_vars + 1)


def reference_solver(formula, units, activity) -> reference_cdcl.CdclSolver:
    reference = reference_cdcl.CdclSolver(formula, extra_units=units, vsids=activity is not None)
    if activity is not None:
        reference._activity = list(activity)
    return reference


def learnt_units(outcome) -> tuple[int, ...]:
    # the reference keeps learnt units; the solver keeps them as its
    # one-literal learnt clauses
    if isinstance(outcome, reference_cdcl.SolveOutcome):
        return outcome.learnt_units
    return tuple(clause[0] for clause in outcome.learnt_clauses if len(clause) == 1)


def fields(outcome) -> tuple:
    # SolveOutcomes of two modules are different classes and never compare equal
    return tuple(
        learnt_units(outcome) if name == "learnt_units" else getattr(outcome, name)
        for name in OUTCOME_FIELDS
    )


@settings(max_examples=1500, deadline=None)
@given(
    case=solver_cases(max_vars=40),
    shared=st.integers(0, 3),
    limit=st.sampled_from((1, 2, 3, 5, 20, None)),
    kind=st.sampled_from(("decisions", "conflicts")),
    branching=BRANCHING,
)
def test_fast_path_outcomes_equal_the_reference_solver(case, shared, limit, kind, branching):
    cnf, assumption, rng = case
    shared_units = [rng.choice((1, -1)) * rng.randint(1, cnf.num_vars) for _ in range(shared)]
    activity = start_activity(cnf, branching)
    # the frozen reference reads its limit and kind from a budget object
    budget = SimpleNamespace(max_nodes=limit, kind=kind)
    expected = reference_solver(cnf, shared_units, activity).solve(assumption, budget)
    fast = solver.CdclSolver(cnf, [(lit,) for lit in shared_units], activity=activity)
    assert fields(fast.solve(assumption, limit, kind)) == fields(expected)


@settings(max_examples=450, deadline=None)
@given(
    # near the threshold, where an earlier job learns clauses to relay
    case=solver_cases(max_vars=40, min_vars=10, ratios=(3.5, 5.0)),
    limit=st.sampled_from((1, 3, 20, None)),
    kind=st.sampled_from(("decisions", "conflicts")),
    branching=BRANCHING,
)
def test_relayed_clauses_match_the_reference_on_the_extended_formula(case, limit, kind, branching):
    cnf, assumption, rng = case
    # relay what an earlier job, under another assumption, learnt
    earlier = solver.solve_budgeted(cnf, random_assumption(rng, cnf.num_vars, 2), 20, "conflicts")
    units = [clause[0] for clause in earlier.learnt_clauses if len(clause) == 1]
    clauses = [clause for clause in earlier.learnt_clauses if len(clause) > 1]
    extended = CnfFormula(cnf.num_vars, cnf.clauses + tuple(clauses))
    budget = SimpleNamespace(max_nodes=limit, kind=kind)
    # the seed counts the formula's literals only, as the sat app's does
    activity = start_activity(cnf, branching)
    expected = reference_solver(extended, units, activity).solve(assumption, budget)
    relayed = solver.CdclSolver(cnf, earlier.learnt_clauses, activity=activity)
    assert fields(relayed.solve(assumption, limit, kind)) == fields(expected)


@settings(max_examples=450, deadline=None)
@given(case=solver_cases(max_vars=12), branching=BRANCHING)
def test_verdicts_models_and_learnt_units_match_brute_force(case, branching):
    cnf, assumption, _rng = case
    outcome = solver.solve_budgeted(cnf, assumption, activity=start_activity(cnf, branching))
    assumed = CnfFormula(cnf.num_vars, cnf.clauses + tuple((lit,) for lit in assumption))
    expected_sat, _model = brute_force_sat(assumed)
    assert outcome.status == ("sat" if expected_sat else "unsat")
    if expected_sat:
        assert verify_model(assumed, outcome.model)
    if outcome.global_unsat:
        assert not brute_force_sat(cnf)[0]
    for clause in outcome.learnt_clauses:
        # implied by the formula alone, whatever the assumption
        assert brute_force_implied(cnf, clause), clause
