"""DIMACS CNF parsing and model checking."""

from __future__ import annotations

import sys
from typing import Iterable, NamedTuple

from ...errors import InputFormatError


class CnfFormula(NamedTuple):
    """CNF over variables 1..num_vars; a clause is a tuple of nonzero literals.

    Clauses never contain a literal together with its negation (tautologies
    are dropped at parse); an empty clause is kept and short-circuits any
    solve to UNSAT.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs(data: bytes | str) -> CnfFormula:
    """Parse DIMACS CNF text: ``p cnf V C`` then C zero-terminated clauses.

    Comments (``c`` lines) and the SATLIB ``%`` terminator are ignored.
    Diagnostics carry the input line number.  Duplicate literals inside a
    clause are collapsed; tautological clauses are dropped after the
    declared clause count is verified.
    """
    text = data.decode("ascii", errors="replace") if isinstance(data, bytes) else data
    num_vars: int | None = None
    declared = 0
    clauses: list[tuple[int, ...] | None] = []
    current: list[int] = []
    parsed = 0
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            ended = True
            continue
        if ended:
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise InputFormatError(f"line {lineno}: duplicate problem header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InputFormatError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise InputFormatError(f"line {lineno}: bad header counts: {exc}") from exc
            if num_vars < 0 or declared < 0:
                raise InputFormatError(f"line {lineno}: negative header counts")
            if 2 * num_vars + 1 > sys.maxsize:  # the solver's per-literal tables
                raise InputFormatError(f"line {lineno}: {num_vars} variables; too many to allocate")
            continue
        if num_vars is None:
            raise InputFormatError(f"line {lineno}: clause before 'p cnf' header")
        tokens = line.split()
        try:
            # one conversion per line; a bad token raises where a
            # token-by-token read would, after the literals before it
            for lit in map(int, tokens):
                if lit == 0:
                    clauses.append(_finish_clause(current))
                    current = []
                    parsed += 1
                else:
                    if abs(lit) > num_vars:
                        raise InputFormatError(
                            f"line {lineno}: literal {lit} out of range for {num_vars} variables"
                        )
                    current.append(lit)
        except ValueError:
            for tok in tokens:  # find the token ``int`` refused
                try:
                    int(tok)
                except ValueError as exc:
                    raise InputFormatError(f"line {lineno}: bad literal {tok!r}") from exc
    if num_vars is None:
        raise InputFormatError("missing 'p cnf' header")
    if current:
        raise InputFormatError("last clause is not terminated by 0")
    if parsed != declared:
        raise InputFormatError(f"header declares {declared} clauses, found {parsed}")
    kept = tuple(c for c in clauses if c is not None)
    return CnfFormula(num_vars=num_vars, clauses=kept)


def _finish_clause(lits: list[int]) -> tuple[int, ...] | None:
    """Deduplicate; None for tautologies (dropped)."""
    seen: set[int] = set()
    out: list[int] = []
    for lit in lits:
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


def verify_model(formula: CnfFormula, model: Iterable[int]) -> bool:
    """True when the assignment satisfies every clause of the formula."""
    assigned = set(model)
    return all(any(lit in assigned for lit in clause) for clause in formula.clauses)
