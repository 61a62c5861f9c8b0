import itertools
import random

import pytest

from btsearch.apps.sat.dimacs import CnfFormula, verify_model
from btsearch.apps.sat.app import SatApplication
from btsearch.apps.sat.solver import (
    BUDGET_KINDS,
    MAX_SHARED_LITERALS,
    CdclSolver,
    SolveOutcome,
    solve_budgeted,
)
from btsearch.errors import InputFormatError

from oracles import (
    brute_force_implied,
    brute_force_sat,
    pigeonhole_cnf,
    random_3cnf,
    unit_propagate,
)


def formula(num_vars, *clauses):
    return CnfFormula(num_vars=num_vars, clauses=tuple(tuple(c) for c in clauses))


class TestUnitPropagate:
    def test_implication_propagates(self):
        assignment, conflict = unit_propagate([(-1, 2)], [1])
        assert assignment == [1, 2]
        assert conflict is None

    def test_contradictory_units_conflict(self):
        _, conflict = unit_propagate([(1,), (-1,)])
        assert conflict in ((1,), (-1,))

    def test_nine_step_chain(self):
        chain = [(-i, i + 1) for i in range(1, 10)]
        assignment, conflict = unit_propagate(chain, [1])
        assert conflict is None
        assert assignment == list(range(1, 11))


class TestSolveBasics:
    def test_forced_sat_by_propagation(self):
        outcome = solve_budgeted(formula(2, (1,), (-1, 2)))
        assert outcome.status == "sat"
        assert outcome.model == (1, 2)

    def test_direct_contradiction_unsat(self):
        outcome = solve_budgeted(formula(1, (1,), (-1,)))
        assert outcome.status == "unsat"
        assert outcome.global_unsat

    def test_empty_clause_short_circuits(self):
        outcome = solve_budgeted(formula(2, ()))
        assert outcome.status == "unsat" and outcome.global_unsat

    def test_pigeonhole_three_into_two_unsat(self):
        php = pigeonhole_cnf(3, 2)
        assert brute_force_sat(php)[0] is False
        outcome = solve_budgeted(php)
        assert outcome.status == "unsat" and outcome.global_unsat

    def test_model_extends_assumption(self):
        outcome = solve_budgeted(formula(3, (1, 2, 3)), assumption=(-1, -2))
        assert outcome.status == "sat"
        assert -1 in outcome.model and -2 in outcome.model and 3 in outcome.model

    def test_unsat_under_assumption_not_global(self):
        outcome = solve_budgeted(formula(2, (1, 2)), assumption=(-1, -2))
        assert outcome.status == "unsat"
        assert not outcome.global_unsat


class TestBudgets:
    def test_decision_budget_splits_free_variables(self):
        # no clauses: decide x1, budget 1 exhausted at the next decision point
        outcome = solve_budgeted(formula(3), limit=1, kind="decisions")
        assert outcome.status == "exhausted"
        assert outcome.decisions == 1
        assert outcome.splits == ((1,), (-1,))

    def test_splits_cover_extensions_exactly_once(self):
        rng = random.Random(17)
        exhausted = 0
        # sparse formulas at budgets of 1-3 units, then denser ones at 3-5
        for num_vars, num_clauses, limits in ((8, 20, [1, 2, 3]), (9, 42, [3, 4, 5])):
            for _ in range(25):
                cnf = random_3cnf(rng, num_vars, num_clauses)
                kind = rng.choice(["decisions", "conflicts"])
                outcome = solve_budgeted(cnf, limit=rng.choice(limits), kind=kind)
                if outcome.status != "exhausted":
                    continue
                assert outcome.splits
                exhausted += 1
                for bits in itertools.product([False, True], repeat=num_vars):
                    full = tuple(v if bits[v - 1] else -v for v in range(1, num_vars + 1))
                    matching = [s for s in outcome.splits if all(lit in full for lit in s)]
                    assert len(matching) == 1, outcome.splits
        assert exhausted > 1

    def test_splits_are_pairwise_contradictory(self):
        outcome = solve_budgeted(formula(4), limit=3, kind="decisions")
        assert outcome.status == "exhausted"
        outcomes = [outcome]
        rng = random.Random(29)
        for _ in range(25):
            cnf = random_3cnf(rng, 9, 42)
            outcomes.append(solve_budgeted(cnf, limit=3, kind="conflicts"))
        assert sum(o.status == "exhausted" for o in outcomes) > 1
        for outcome in outcomes:
            for a, b in itertools.combinations(outcome.splits, 2):
                assert any(-lit in b for lit in a), outcome.splits

    def test_conflict_budget_exhausts(self):
        php = pigeonhole_cnf(4, 3)
        outcome = solve_budgeted(php, limit=1, kind="conflicts")
        assert outcome.status == "exhausted"
        assert outcome.conflicts >= 1

    @pytest.mark.parametrize("kind", ["conflict", "nodes", "Decisions", ""])
    def test_an_unknown_budget_kind_is_refused(self, kind):
        # each used to budget decisions without a word
        php = pigeonhole_cnf(4, 3)
        with pytest.raises(ValueError, match="budget kind"):
            solve_budgeted(php, (), 1, kind)
        with pytest.raises(ValueError, match="budget kind"):
            CdclSolver(php).solve((), None, kind)
        with pytest.raises(ValueError, match="budget kind"):
            SolveOutcome("exhausted", decisions=3, conflicts=1).budget_spent(kind)

    def test_the_budget_kinds_are_listed_once(self):
        assert BUDGET_KINDS == ("decisions", "conflicts")
        assert SatApplication.budget_kinds is BUDGET_KINDS
        outcome = SolveOutcome("exhausted", decisions=3, conflicts=1)
        assert [outcome.budget_spent(kind) for kind in BUDGET_KINDS] == [3, 1]

    def test_unbounded_budget_completes(self):
        cnf = formula(3, (1, 2), (-1, 3))
        outcome = solve_budgeted(cnf, limit=None, kind="decisions")
        assert outcome.status == "sat"

    def test_the_default_branches_by_lowest_index(self):
        # perfbench/workloads.py:223 keeps a sat-unsat CNF by the conflicts
        # that solve_budgeted(formula) needs at its defaults; another default
        # would generate other CNFs on one side of a benchmark pair
        cnf = random_3cnf(random.Random(0), 40, 170)
        default = solve_budgeted(cnf)
        assert default == solve_budgeted(cnf, activity=None)
        assert default.conflicts != solve_budgeted(cnf, activity=[0] * 41).conflicts


class TestLearning:
    def test_single_decision_conflict_learns_a_unit(self):
        # deciding x1 immediately fails both branches of x2
        cnf = formula(2, (-1, 2), (-1, -2))
        outcome = solve_budgeted(cnf)
        assert outcome.status == "sat"
        assert (-1,) in outcome.learnt_clauses
        assert -1 in outcome.model

    def test_learnt_units_are_implied(self):
        # every returned clause, units and longer ones alike
        rng = random.Random(23)
        checked = 0
        for _ in range(40):
            cnf = random_3cnf(rng, rng.randrange(6, 13), rng.randrange(18, 40))
            outcome = solve_budgeted(cnf)
            for clause in outcome.learnt_clauses:
                assert brute_force_implied(cnf, clause), (cnf, clause)
                checked += 1
        assert checked > 0

    def test_short_learnt_clauses_are_sorted_distinct_and_at_most_8_long(self):
        # pigeonhole(6 into 5) also learns clauses of 9 to 13 literals
        outcome = solve_budgeted(pigeonhole_cnf(6, 5))
        clauses = outcome.learnt_clauses
        assert any(len(c) > 1 for c in clauses)
        assert len(set(clauses)) == len(clauses)
        for clause in clauses:
            assert list(clause) == sorted(clause)
            assert 1 <= len(clause) <= MAX_SHARED_LITERALS

    def test_level_zero_conflict_is_global_unsat(self):
        cnf = formula(2, (1,), (-1, 2), (-2,))
        outcome = solve_budgeted(cnf)
        assert outcome.status == "unsat" and outcome.global_unsat


class TestAgainstBruteForce:
    @pytest.mark.parametrize("by_activity", [False, True])
    def test_random_3cnf_verdicts(self, by_activity):
        rng = random.Random(1000 + by_activity)
        for _ in range(40):
            num_vars = rng.randrange(5, 14)
            cnf = random_3cnf(rng, num_vars, int(num_vars * rng.uniform(3, 5)))
            expected_sat, _ = brute_force_sat(cnf)
            activity = [0] * (num_vars + 1) if by_activity else None
            outcome = CdclSolver(cnf, activity=activity).solve()
            assert outcome.status == ("sat" if expected_sat else "unsat")
            if expected_sat:
                assert verify_model(cnf, outcome.model)

    def test_budgeted_job_queue_reaches_same_verdict(self):
        # simulate the master loop locally: process splits until done
        rng = random.Random(77)
        for _ in range(25):
            cnf = random_3cnf(rng, rng.randrange(5, 11), rng.randrange(15, 40))
            expected_sat, _ = brute_force_sat(cnf)
            kind = rng.choice(["decisions", "conflicts"])
            queue = [()]
            found_model = None
            jobs = 0
            while queue and found_model is None:
                assumption = queue.pop(0)
                outcome = solve_budgeted(cnf, assumption, 2, kind)
                jobs += 1
                assert jobs < 10000
                if outcome.status == "sat":
                    found_model = outcome.model
                elif outcome.status == "exhausted":
                    queue.extend(outcome.splits)
            assert (found_model is not None) == expected_sat
            if found_model is not None:
                assert verify_model(cnf, found_model)


class TestSharedUnits:
    def test_inconsistent_shared_units_refute_globally(self):
        # complementary one-literal clauses: inconsistent at level 0, before
        # any decision, conflict or learnt clause
        outcome = solve_budgeted(formula(2, (1, 2)), shared_clauses=((1,), (-1,)))
        assert outcome._asdict() == {
            "status": "unsat",
            "model": None,
            "splits": (),
            "learnt_clauses": (),
            "decisions": 0,
            "conflicts": 0,
            "global_unsat": True,
        }

    def test_shared_units_prune_the_search(self):
        cnf = formula(3, (1, 2, 3))
        outcome = solve_budgeted(cnf, shared_clauses=((-1,), (-2,)))
        assert outcome.status == "sat"
        assert outcome.model == (-1, -2, 3)

    def test_shared_clauses_prune_the_search(self):
        php = pigeonhole_cnf(5, 4)
        alone = solve_budgeted(php)
        relayed = solve_budgeted(php, shared_clauses=alone.learnt_clauses)
        assert alone.status == relayed.status == "unsat"
        assert relayed.conflicts < alone.conflicts

    def test_an_out_of_range_shared_clause_is_rejected(self):
        for clause in ((1, 3), (-3, 1), (1, 0), (0,)):
            with pytest.raises(InputFormatError, match="out of range"):
                solve_budgeted(formula(2, (1, 2)), shared_clauses=(clause,))

    def test_an_empty_shared_clause_refutes_globally(self):
        outcome = solve_budgeted(formula(2, (1, 2)), shared_clauses=((1,), ()))
        assert outcome.status == "unsat" and outcome.global_unsat
