"""Engine adapter: budgeted SAT as a tree-search application.

A job payload is an ordered list of assumed decision literals (propagations
are re-derived by the worker).  Budget exhaustion returns the backtrack-path
splits as new jobs; learnt unit clauses travel as shared tokens.  The first
model found halts the run; a completed run with no model means the whole
assumption space was refuted, so the finalize hook emits the UNSAT verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ...budget import Budget
from ...errors import BtsearchError, NodeDecodeError
from ...search_api import Application, ApplicationDescriptor, SearchResult
from .dimacs import CnfFormula, parse_dimacs, verify_model
from .solver import SolveOutcome, solve_budgeted


@dataclass(frozen=True)
class _Global:
    formula: CnfFormula


def _encode_assumption(lits: Sequence[int]) -> bytes:
    return " ".join(str(lit) for lit in lits).encode("ascii")


def _decode_assumption(payload: bytes, num_vars: int) -> tuple[int, ...]:
    try:
        lits = tuple(int(tok) for tok in payload.decode("ascii").split())
    except (UnicodeDecodeError, ValueError) as exc:
        raise NodeDecodeError(f"bad assumption payload: {exc}") from exc
    seen: set[int] = set()
    for lit in lits:
        if lit == 0 or abs(lit) > num_vars:
            raise NodeDecodeError(f"assumption literal {lit} out of range")
        if abs(lit) in seen:
            raise NodeDecodeError(f"variable {abs(lit)} assumed twice")
        seen.add(abs(lit))
    return lits


class SatApplication(Application):
    """DIMACS CNF in; ``s SATISFIABLE``/``s UNSATISFIABLE`` verdict out."""

    descriptor = ApplicationDescriptor(
        name="sat",
        budget_kinds=("decisions", "conflicts"),
    )

    def __init__(self, restarts: bool = False, vsids: bool = False) -> None:
        self.restarts = restarts
        self.vsids = vsids

    def init(self, input_bytes: bytes) -> tuple[_Global, bytes]:
        formula = parse_dimacs(input_bytes)
        return _Global(formula=formula), b""

    def encode_node(self, vertex: Sequence[int]) -> bytes:
        return _encode_assumption(vertex)

    def decode_node(self, payload: bytes, global_data: _Global) -> tuple[int, ...]:
        return _decode_assumption(payload, global_data.formula.num_vars)

    def search(
        self,
        global_data: _Global,
        payload: bytes,
        budget: Budget,
        shared: Sequence[bytes],
    ) -> SearchResult:
        assumption = self.decode_node(payload, global_data)
        units = [self._decode_unit(tok, global_data) for tok in shared]
        outcome = solve_budgeted(
            global_data.formula,
            assumption,
            budget,
            shared_units=units,
            restarts=self.restarts,
            vsids=self.vsids,
        )
        return self._package(global_data, budget, outcome)

    def _package(
        self,
        global_data: _Global,
        budget: Budget,
        outcome: SolveOutcome,
    ) -> SearchResult:
        visited = outcome.budget_spent(budget.kind)
        delta = [str(u).encode("ascii") for u in outcome.learnt_units]
        if outcome.status == "sat":
            assert outcome.model is not None
            if not verify_model(global_data.formula, outcome.model):
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
            unexplored=[_encode_assumption(split) for split in outcome.splits],
            visited=visited,
            shared_delta=delta,
        )

    @staticmethod
    def _decode_unit(token: bytes, global_data: _Global) -> int:
        try:
            lit = int(token.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise NodeDecodeError(f"bad shared unit token: {exc}") from exc
        if lit == 0 or abs(lit) > global_data.formula.num_vars:
            raise NodeDecodeError(f"shared unit {lit} out of range")
        return lit

    def finalize(self, global_data: _Global, shared: Sequence[bytes], halted: bool) -> list[str]:
        # a completed run with no verdict means every subspace was refuted
        return [] if halted else ["s UNSATISFIABLE"]
