"""Engine adapter: budgeted SAT as a tree-search application.

A job payload is an ordered list of assumed decision literals (propagations
are re-derived by the worker).  Budget exhaustion returns the backtrack-path
splits as new jobs; learnt unit clauses travel as shared tokens.  The first
model found halts the run; a completed run with no model means the whole
assumption space was refuted, so the finalize hook emits the UNSAT verdict.
"""

from __future__ import annotations

from typing import Sequence

from ...budget import Budget
from ...errors import BtsearchError, NodeDecodeError
from ...search_api import Application, SearchResult
from ..base import decode_ints, encode_ints
from .dimacs import CnfFormula, parse_dimacs, verify_model
from .solver import SolveOutcome, solve_budgeted


class SatApplication(Application):
    """DIMACS CNF in; ``s SATISFIABLE``/``s UNSATISFIABLE`` verdict out."""

    name = "sat"
    budget_kinds = ("decisions", "conflicts")

    def __init__(self, restarts: bool = False, vsids: bool = False) -> None:
        self.restarts = restarts
        self.vsids = vsids

    def init(self, input_bytes: bytes) -> tuple[CnfFormula, bytes]:
        return parse_dimacs(input_bytes), b""  # the empty assumption

    def decode_node(self, payload: bytes, global_data: CnfFormula) -> tuple[int, ...]:
        """The assumption ``payload`` encodes: distinct variables, in range."""
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
        global_data: CnfFormula,
        payload: bytes,
        budget: Budget,
        shared: Sequence[bytes],
    ) -> SearchResult:
        assumption = self.decode_node(payload, global_data)
        units = [self.decode_token(tok, global_data) for tok in shared]
        outcome = solve_budgeted(
            global_data,
            assumption,
            budget,
            shared_units=units,
            restarts=self.restarts,
            vsids=self.vsids,
        )
        return self._package(global_data, budget, outcome)

    def _package(
        self,
        global_data: CnfFormula,
        budget: Budget,
        outcome: SolveOutcome,
    ) -> SearchResult:
        visited = outcome.budget_spent(budget.kind)
        delta = [encode_ints((u,)) for u in outcome.learnt_units]
        if outcome.status == "sat":
            assert outcome.model is not None
            if not verify_model(global_data, outcome.model):
                raise BtsearchError("solver returned a model violating the formula")
            lines = ["s SATISFIABLE", "v " + " ".join(str(l) for l in outcome.model) + " 0"]
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
            unexplored=[encode_ints(split) for split in outcome.splits],
            visited=visited,
            shared_delta=delta,
        )

    def decode_token(self, token: bytes, global_data: CnfFormula) -> int:
        """The learnt unit literal ``token`` encodes."""
        unit = decode_ints(token, "shared unit")
        if len(unit) != 1 or unit[0] == 0 or abs(unit[0]) > global_data.num_vars:
            raise NodeDecodeError(f"shared unit {token!r} is not one literal in range")
        return unit[0]

    def finalize(self, global_data: CnfFormula) -> list[str]:
        # the engine calls this only after a run with no verdict: every
        # subspace was refuted
        return ["s UNSATISFIABLE"]
