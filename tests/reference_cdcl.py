"""The CDCL solver as it was before its propagation fast path.

The differential test in ``test_sat_properties.py`` runs this copy and
``btsearch.apps.sat.solver`` side by side: an optimisation of the solver
must keep every outcome field identical.  The code is unchanged apart
from its imports; do not edit it.

Budgeted CDCL: DPLL with watched-literal propagation and 1UIP learning.

The solver runs under an ordered list of assumed literals (one decision
level each) and a budget counted in free decisions or in conflicts.  When
the budget runs out at a decision point it returns the unexplored pieces of
its search space as new assumption lists: the current decision stack as a
continuation, plus one flip per decision along the backtrack path.  Those
splits are pairwise contradictory and together cover every extension of the
job's assumption, so work is partitioned without any shared state.

Learnt clauses never resolve on decision or assumption literals, so every
learnt clause - in particular every learnt unit - is implied by the input
formula alone and is safe to share globally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from btsearch.apps.sat.dimacs import CnfFormula
from btsearch.budget import Budget
from btsearch.errors import InputFormatError

_TRUE = 1
_FALSE = -1
_UNASSIGNED = 0


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one budgeted solve.

    ``status`` is ``"sat"``, ``"unsat"`` (no extension of the assumptions)
    or ``"exhausted"``.  ``global_unsat`` marks refutations independent of
    the assumptions.  ``splits`` are the unexplored assumption lists;
    ``learnt_units`` are formula-implied literals discovered during the job.
    """

    status: str
    model: tuple[int, ...] | None = None
    splits: tuple[tuple[int, ...], ...] = ()
    learnt_units: tuple[int, ...] = ()
    decisions: int = 0
    conflicts: int = 0
    global_unsat: bool = False

    def budget_spent(self, kind: str) -> int:
        return self.conflicts if kind == "conflicts" else self.decisions


class CdclSolver:
    """One solver instance per job; all state is local to the instance."""

    def __init__(
        self,
        formula: CnfFormula,
        extra_units: Sequence[int] = (),
        restarts: bool = False,
        vsids: bool = False,
        restart_base: int = 100,
    ) -> None:
        self.nvars = formula.num_vars
        self.clauses: list[list[int]] = [list(c) for c in formula.clauses]
        self.restarts = restarts
        self.vsids = vsids
        self.restart_base = restart_base
        self.value = [_UNASSIGNED] * (self.nvars + 1)
        self.level = [0] * (self.nvars + 1)
        self.reason = [-1] * (self.nvars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self._seen = [False] * (self.nvars + 1)
        self._activity = [0.0] * (self.nvars + 1)
        self._act_inc = 1.0
        # watches[lit + nvars] -> clause indices watching lit
        self._watches: list[list[int]] = [[] for _ in range(2 * self.nvars + 1)]
        self._units: list[int] = []
        for ci, clause in enumerate(self.clauses):
            if not self._attach(ci, clause):
                self.ok = False
        for lit in extra_units:
            if abs(lit) > self.nvars or lit == 0:
                raise InputFormatError(f"shared unit {lit} out of range")
            self.clauses.append([lit])
            if not self._attach(len(self.clauses) - 1, self.clauses[-1]):
                self.ok = False

    # -- plumbing -----------------------------------------------------------

    def _wix(self, lit: int) -> int:
        return lit + self.nvars

    def _lit_value(self, lit: int) -> int:
        v = self.value[abs(lit)]
        return v if lit > 0 else -v

    def _attach(self, ci: int, clause: list[int]) -> bool:
        """Register a clause; False when it is empty or conflicts at level 0."""
        if not clause:
            return False
        if len(clause) == 1:
            val = self._lit_value(clause[0])
            if val == _FALSE:
                return False
            if val == _UNASSIGNED:
                self._enqueue(clause[0], ci)
            return True
        self._watches[self._wix(clause[0])].append(ci)
        self._watches[self._wix(clause[1])].append(ci)
        return True

    def _enqueue(self, lit: int, reason_ci: int) -> None:
        v = abs(lit)
        self.value[v] = _TRUE if lit > 0 else _FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_ci
        self.trail.append(lit)

    def _new_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        floor = self.trail_lim[target_level]
        for lit in reversed(self.trail[floor:]):
            self.value[abs(lit)] = _UNASSIGNED
        del self.trail[floor:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> int | None:
        """Unit propagation to fixpoint; returns a falsified clause index."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            watchers = self._watches[self._wix(false_lit)]
            i = 0
            while i < len(watchers):
                ci = watchers[i]
                clause = self.clauses[ci]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == _TRUE:
                    i += 1
                    continue
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != _FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches[self._wix(clause[1])].append(ci)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        break
                else:
                    if self._lit_value(first) == _FALSE:
                        self.qhead = len(self.trail)
                        return ci
                    self._enqueue(first, ci)
                    i += 1
        return None

    # -- conflict analysis ----------------------------------------------------

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learning: (learnt clause, asserting lit first; backjump level)."""
        cur = len(self.trail_lim)
        seen = self._seen
        touched: list[int] = []
        learnt: list[int] = []
        counter = 0
        p = 0
        idx = len(self.trail) - 1
        clause = self.clauses[confl]
        while True:
            for q in clause:
                if q == p:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    touched.append(v)
                    self._bump(v)
                    if self.level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            clause = self.clauses[self.reason[abs(p)]]
        asserting = -p
        out = [asserting] + learnt
        if len(out) == 1:
            backjump = 0
        else:
            # second-highest level; move that literal next to the front for watching
            best = 1
            for k in range(2, len(out)):
                if self.level[abs(out[k])] > self.level[abs(out[best])]:
                    best = k
            out[1], out[best] = out[best], out[1]
            backjump = self.level[abs(out[1])]
        for v in touched:
            seen[v] = False
        if self.vsids:
            self._act_inc /= 0.95
        return out, backjump

    def _bump(self, var: int) -> None:
        if not self.vsids:
            return
        self._activity[var] += self._act_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.nvars + 1):
                self._activity[v] *= 1e-100
            self._act_inc *= 1e-100

    def _record_learnt(self, learnt: list[int]) -> int:
        self.clauses.append(learnt)
        ci = len(self.clauses) - 1
        if len(learnt) >= 2:
            self._watches[self._wix(learnt[0])].append(ci)
            self._watches[self._wix(learnt[1])].append(ci)
        if len(learnt) == 1 and learnt[0] not in self._units:
            self._units.append(learnt[0])
        return ci

    # -- branching -------------------------------------------------------------

    def _pick_branch(self) -> int | None:
        if self.vsids:
            best = None
            best_act = -1.0
            for v in range(1, self.nvars + 1):
                if self.value[v] == _UNASSIGNED and self._activity[v] > best_act:
                    best, best_act = v, self._activity[v]
            return best
        for v in range(1, self.nvars + 1):
            if self.value[v] == _UNASSIGNED:
                return v
        return None

    def _model(self) -> tuple[int, ...]:
        return tuple(v if self.value[v] == _TRUE else -v for v in range(1, self.nvars + 1))

    def _free_decisions(self, num_assumed: int) -> list[int]:
        return [self.trail[self.trail_lim[k]] for k in range(num_assumed, len(self.trail_lim))]

    @staticmethod
    def _splits_from(prefix: tuple[int, ...], decisions: list[int]) -> list[tuple[int, ...]]:
        """Continuation plus one flip per decision, most recent first."""
        out = [prefix + tuple(decisions)]
        for i in range(len(decisions) - 1, -1, -1):
            out.append(prefix + tuple(decisions[:i]) + (-decisions[i],))
        return out

    # -- main loop ---------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (), budget: Budget | None = None) -> SolveOutcome:
        """Solve under ``assumptions`` within ``budget``.

        ``budget.max_nodes`` caps the conflicts when ``budget.kind`` is
        ``"conflicts"`` and the decisions otherwise; ``max_depth`` is not
        used.  No budget, or ``max_nodes=None``, solves to completion.
        Consistency of the assumption list is the caller's contract (job
        payloads are validated on decode).
        """
        limit = None if budget is None else budget.max_nodes
        by_conflicts = budget is not None and budget.kind == "conflicts"
        base = tuple(assumptions)
        num_assumed = len(base)
        decisions = 0
        conflicts = 0
        pending: list[tuple[int, ...]] = []
        restart_limit = self.restart_base
        conflicts_since_restart = 0

        def outcome(status: str, **kw) -> SolveOutcome:
            return SolveOutcome(
                status=status,
                learnt_units=tuple(self._units),
                decisions=decisions,
                conflicts=conflicts,
                **kw,
            )

        if not self.ok:
            return outcome("unsat", global_unsat=True)

        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts += 1
                conflicts_since_restart += 1
                level = len(self.trail_lim)
                if level == 0:
                    self.ok = False
                    return outcome("unsat", global_unsat=True)
                if level <= num_assumed:
                    # only assumption decisions above the conflict
                    return outcome("unsat", global_unsat=False)
                learnt, backjump = self._analyze(confl)
                ci = self._record_learnt(learnt)
                self._cancel_until(backjump)
                self._enqueue(learnt[0], ci)
                over = by_conflicts and limit is not None and conflicts >= limit
                if self.restarts and not over and conflicts_since_restart >= restart_limit:
                    flips = self._splits_from(base, self._free_decisions(num_assumed))[1:]
                    pending.extend(flips)
                    restart_limit *= 2
                    conflicts_since_restart = 0
                    self._cancel_until(min(num_assumed, len(self.trail_lim)))
                continue

            level = len(self.trail_lim)
            if level < num_assumed:
                lit = base[level]
                val = self._lit_value(lit)
                if val == _FALSE:
                    return outcome("unsat", global_unsat=False)
                self._new_level()
                if val == _UNASSIGNED:
                    self._enqueue(lit, -1)
                continue

            branch = self._pick_branch()
            if branch is None:
                return outcome("sat", model=self._model())
            if limit is not None and (conflicts if by_conflicts else decisions) >= limit:
                frees = self._free_decisions(num_assumed)
                if frees:
                    splits = self._splits_from(base, frees)
                else:
                    # no decision on the trail: split on the would-be branch
                    # variable so every returned job is strictly narrower
                    splits = [base + (branch,), base + (-branch,)]
                merged: list[tuple[int, ...]] = []
                for s in splits + pending:
                    if s not in merged:
                        merged.append(s)
                return outcome("exhausted", splits=tuple(merged))
            decisions += 1
            self._new_level()
            self._enqueue(branch, -1)


def solve_budgeted(
    formula: CnfFormula,
    assumption: Sequence[int] = (),
    budget: Budget | None = None,
    shared_units: Sequence[int] = (),
    restarts: bool = False,
    vsids: bool = False,
) -> SolveOutcome:
    """One-shot budgeted solve of ``formula`` under ``assumption``.

    Complementary shared units are a global refutation and short-circuit.
    """
    unit_set = set(shared_units)
    if any(-u in unit_set for u in unit_set):
        return SolveOutcome(status="unsat", global_unsat=True)
    solver = CdclSolver(formula, extra_units=shared_units, restarts=restarts, vsids=vsids)
    return solver.solve(assumption, budget)
