"""Engine adapter: budgeted SAT as a tree-search application.

A job is a tuple of assumed decision literals, in order (propagations are
re-derived by the worker); the root job is the empty tuple.  Past its
assumption a job branches on the free variable of highest activity (VSIDS:
variables in recent conflicts score higher; ties go to the lowest index).
Every job starts from the same activities, each variable's number of
occurrences in the formula, counted once in ``init``.  The app's
``budget_kind`` says what a unit of ``budget.max_nodes`` counts: free
decisions or conflicts.  Budget exhaustion returns the backtrack-path
splits as new jobs, each searched by a fresh solver: the job boundary is
the only restart point.  Learnt clauses of at most ``MAX_SHARED_LITERALS``
(8) literals travel as shared tokens, each the sorted clause tuple, so the
master's dedup keeps one token per clause; a learnt unit is a one-literal
clause.  A job hands the solver its tokens as they came, and the solver
range-checks them on every job.  Only a checkpoint holds jobs and tokens
as bytes: their literals as decimal text.  The first model found halts the
run; a completed run with no model means the whole assumption space was
refuted, so the finalize hook emits the UNSAT verdict.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ...budget import Budget
from ...errors import BtsearchError, InputFormatError, NodeDecodeError
from ...search_api import Application, SearchResult, decode_ints, encode_ints
from .dimacs import parse_dimacs, verify_model
from .solver import BUDGET_KINDS, MAX_SHARED_LITERALS, solve_budgeted


class SeededCnf(NamedTuple):
    """The global data: a ``CnfFormula``'s two fields, then ``activity``,
    each variable's number of occurrences (entry 0 unused), which every job
    starts its branching order from."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    activity: tuple[int, ...]


class SatApplication(Application):
    """DIMACS CNF in; ``s SATISFIABLE``/``s UNSATISFIABLE`` verdict out."""

    name = "sat"
    # the units ``budget.max_nodes`` may count; the first is the default
    budget_kinds = BUDGET_KINDS

    def __init__(self, budget_kind: str = "decisions") -> None:
        """ValueError on a budget kind not in ``budget_kinds``."""
        if budget_kind not in self.budget_kinds:
            accepted = ", ".join(self.budget_kinds)
            raise ValueError(f"{self.name} accepts budget kinds {accepted}, not {budget_kind!r}")
        self.budget_kind = budget_kind

    # a checkpoint stores an assumption or a clause as its decimal literals
    encode_node = encode_token = staticmethod(encode_ints)

    def init(self, input_bytes: bytes) -> tuple[SeededCnf, tuple[int, ...]]:
        formula = parse_dimacs(input_bytes)
        try:
            activity = [0] * (formula.num_vars + 1)
        except MemoryError as exc:
            raise InputFormatError(
                f"{formula.num_vars} variables; too many to allocate"
            ) from exc
        for clause in formula.clauses:
            for lit in clause:
                activity[abs(lit)] += 1
        return SeededCnf(*formula, tuple(activity)), ()  # the empty assumption

    def decode_node(self, payload: bytes, global_data: SeededCnf) -> tuple[int, ...]:
        """The assumption ``payload`` encodes: distinct variables, in range;
        run once per job a checkpoint restores."""
        lits = decode_ints(payload, "assumption")
        seen: set[int] = set()
        for lit in lits:
            if lit == 0 or abs(lit) > global_data.num_vars:
                raise NodeDecodeError(f"assumption literal {lit} out of range")
            if abs(lit) in seen:
                raise NodeDecodeError(f"variable {abs(lit)} assumed twice")
            seen.add(abs(lit))
        return lits

    def search(
        self,
        global_data: SeededCnf,
        assumption: tuple[int, ...],
        budget: Budget,
        shared: Sequence[tuple[int, ...]],
    ) -> SearchResult:
        outcome = solve_budgeted(
            global_data,
            assumption,
            budget.max_nodes,
            self.budget_kind,
            shared_clauses=shared,
            activity=global_data.activity,
        )
        visited = outcome.budget_spent(self.budget_kind)
        delta = outcome.learnt_clauses
        if outcome.status == "sat":
            assert outcome.model is not None
            if not verify_model(global_data, outcome.model):
                raise BtsearchError("solver returned a model violating the formula")
            lines = ["s SATISFIABLE", " ".join(["v", *map(str, outcome.model), "0"])]
            return SearchResult(
                outputs=lines,
                output_count=len(lines),
                visited=visited,
                shared_delta=delta,
                halt=True,
            )
        if outcome.status == "unsat":
            if outcome.global_unsat:
                return SearchResult(
                    outputs=["s UNSATISFIABLE"],
                    output_count=1,
                    visited=visited,
                    shared_delta=delta,
                    halt=True,
                )
            # this assumption subspace is refuted; nothing left to do here
            return SearchResult(visited=visited, shared_delta=delta)
        return SearchResult(
            unexplored=outcome.splits,
            visited=visited,
            shared_delta=delta,
        )

    def decode_token(self, token: bytes, global_data: SeededCnf) -> tuple[int, ...]:
        """The learnt clause ``token`` encodes, sorted as ``search`` shares
        it: 1 to 8 literals in range, on distinct variables; run once per
        token a checkpoint restores."""
        clause = decode_ints(token, "shared clause")
        if not 1 <= len(clause) <= MAX_SHARED_LITERALS:
            raise NodeDecodeError(
                f"shared clause {token!r} has {len(clause)} literals, "
                f"not 1 to {MAX_SHARED_LITERALS}"
            )
        variables = {abs(lit) for lit in clause}
        if len(variables) != len(clause):
            raise NodeDecodeError(f"shared clause {token!r} repeats a variable")
        if 0 in variables or max(variables) > global_data.num_vars:
            raise NodeDecodeError(f"shared clause {token!r} has a literal out of range")
        return tuple(sorted(clause))

    def finalize(self, global_data: SeededCnf) -> list[str]:
        # the engine calls this only after a run with no verdict: every
        # subspace was refuted
        return ["s UNSATISFIABLE"]
