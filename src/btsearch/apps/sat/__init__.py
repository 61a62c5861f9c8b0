"""Budgeted SAT solving pluggable into the engine."""

from .dimacs import CnfFormula, parse_dimacs, verify_model
from .solver import CdclSolver, SolveOutcome, solve_budgeted

__all__ = [
    "CnfFormula",
    "parse_dimacs",
    "verify_model",
    "CdclSolver",
    "SolveOutcome",
    "solve_budgeted",
]
