"""Budgeted CDCL: DPLL with watched-literal propagation and 1UIP learning.

The solver runs under an ordered list of assumed literals (one decision
level each) and a budget counted in free decisions or in conflicts.  When
the budget runs out at a decision point it returns the unexplored pieces of
its search space as new assumption lists: the current decision stack as a
continuation, plus one flip per decision along the backtrack path.  Those
splits are pairwise contradictory and together cover every extension of the
job's assumption, so work is partitioned without any shared state.

Learnt clauses never resolve on decision or assumption literals, so every
learnt clause is implied by the input formula alone and is safe to share
globally.  A job returns its learnt clauses of at most
``MAX_SHARED_LITERALS`` literals; a later job attaches that list, units as
one-literal clauses, after the formula's own, so it need not learn them again.

Past its assumptions a job branches on a free variable, set true.  Given
an ``activity`` (the sat app passes each variable's number of occurrences,
so a job's first decisions fall on the most constrained variables), that is
the one of highest activity (Chaff's rule): each conflict analysis bumps the
variables it touches by an increment that grows 1/0.95 times per conflict,
and ties go to the lowest index.  With ``activity=None`` the lowest-numbered
free variable is taken, so ``solve_budgeted(formula)`` keeps its outcomes.
There is no restart schedule: each job starts from a fresh solver at its
assumption, so the job boundary is the only restart point.

Values and watch lists are indexed by the literal itself: ``lv[lit]`` is
the value of ``lit`` (1 true, -1 false, 0 unassigned) in a list of size
2n + 1, where a negative literal wraps to the upper half, so the
propagation loop reads it with no ``abs`` and no offset.  Assigning or
unassigning a variable writes both ``lv[lit]`` and ``lv[-lit]``.  Levels,
reasons and activities stay indexed by variable.  A watch list holds the
clause lists themselves and a reason is the implying clause, so the loop
looks up no clause table.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ...errors import InputFormatError
from .dimacs import CnfFormula

_TRUE = 1
_FALSE = -1
_UNASSIGNED = 0

# learnt clauses up to this length travel to other jobs (ManySAT's cut-off)
MAX_SHARED_LITERALS = 8

# the units a budget may count; the first is the default
BUDGET_KINDS = ("decisions", "conflicts")


def _check_kind(kind: str) -> None:
    if kind not in BUDGET_KINDS:
        raise ValueError(f"budget kind {kind!r}; expected one of {', '.join(BUDGET_KINDS)}")


class SolveOutcome(NamedTuple):
    """Result of one budgeted solve.

    ``status`` is ``"sat"``, ``"unsat"`` (no extension of the assumptions)
    or ``"exhausted"``.  ``global_unsat`` marks refutations independent of
    the assumptions.  ``splits`` are the unexplored assumption lists;
    ``learnt_clauses`` are the formula-implied clauses of at most
    ``MAX_SHARED_LITERALS`` literals learnt during the job, each sorted, in
    learning order without repeats.
    """

    status: str
    model: tuple[int, ...] | None = None
    splits: tuple[tuple[int, ...], ...] = ()
    learnt_clauses: tuple[tuple[int, ...], ...] = ()
    decisions: int = 0
    conflicts: int = 0
    global_unsat: bool = False

    def budget_spent(self, kind: str) -> int:
        """The units of ``kind`` the job used; ValueError on an unknown kind."""
        _check_kind(kind)
        return self.conflicts if kind == "conflicts" else self.decisions


class CdclSolver:
    """One solver instance per job; all state is local to the instance.

    ``extra_clauses``, implied by the formula, are attached in order after
    its clauses; a unit is a one-literal clause.  ``activity`` holds the
    starting activity of each variable, indexed by variable (entry 0
    unused), and is copied; given one, the solver branches by activity,
    otherwise by lowest index.
    """

    def __init__(
        self,
        formula: CnfFormula,
        extra_clauses: Sequence[Sequence[int]] = (),
        activity: Sequence[float] | None = None,
    ) -> None:
        self.nvars = formula.num_vars
        # lv[lit] is the value of literal lit; lv[-lit] wraps to the upper half
        self.lv = [_UNASSIGNED] * (2 * self.nvars + 1)
        self.level = [0] * (self.nvars + 1)
        # the clause that implied each variable; None for decisions
        self.reason: list[list[int] | None] = [None] * (self.nvars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self._seen = [False] * (self.nvars + 1)
        # None: branch by lowest index and keep no activities
        self._activity = None if activity is None else list(activity)
        self._act_inc = 1.0
        # _watches[lit] -> the clauses watching lit, laid out as lv
        self._watches: list[list[list[int]]] = [[] for _ in range(2 * self.nvars + 1)]
        # the short learnt clauses, sorted; a dict keeps learning order
        self._short: dict[tuple[int, ...], None] = {}
        for clause in formula.clauses:
            if not self._attach(list(clause)):
                self.ok = False
        for clause in extra_clauses:
            if any(lit == 0 or abs(lit) > self.nvars for lit in clause):
                raise InputFormatError(f"shared clause {clause} out of range")
            if not self._attach(list(clause)):
                self.ok = False

    # -- plumbing -----------------------------------------------------------

    def _attach(self, clause: list[int]) -> bool:
        """Register a clause; False when it is empty or conflicts at level 0."""
        if not clause:
            return False
        if len(clause) == 1:
            val = self.lv[clause[0]]
            if val == _FALSE:
                return False
            if val == _UNASSIGNED:
                self._enqueue(clause[0], clause)
            return True
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)
        return True

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        v = abs(lit)
        self.lv[lit] = _TRUE
        self.lv[-lit] = _FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _new_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def _cancel_until(self, target_level: int) -> None:
        floor = self.trail_lim[target_level]
        lv = self.lv
        for lit in self.trail[floor:]:
            lv[lit] = _UNASSIGNED
            lv[-lit] = _UNASSIGNED
        del self.trail[floor:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        """Unit propagation to fixpoint; returns a falsified clause or None.

        The watchers of each falsified literal are visited in list order.  A
        visited clause is first swapped so the falsified literal is second;
        a clause whose watch moves on is replaced by the list's last entry,
        which is visited next.  ``n`` is the live length of the list, and the
        tail past it is cut off once per literal.
        """
        trail = self.trail
        lv = self.lv
        watches = self._watches
        level = self.level
        reason = self.reason
        cur = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches[false_lit]
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                val = lv[first]
                if val == _TRUE:
                    i += 1
                    continue
                k = 2
                m = len(clause)
                while k < m:
                    lit = clause[k]
                    if lv[lit] != _FALSE:
                        clause[k] = clause[1]
                        clause[1] = lit
                        watches[lit].append(clause)
                        n -= 1
                        watchers[i] = watchers[n]
                        break
                    k += 1
                else:
                    if val == _FALSE:
                        del watchers[n:]
                        self.qhead = len(trail)
                        return clause
                    lv[first] = _TRUE
                    lv[-first] = _FALSE
                    v = first if first > 0 else -first
                    level[v] = cur
                    reason[v] = clause
                    trail.append(first)
                    i += 1
            del watchers[n:]
        self.qhead = qhead
        return None

    # -- conflict analysis ----------------------------------------------------

    def _analyze(self, clause: list[int]) -> tuple[list[int], int]:
        """First-UIP learning: (learnt clause, asserting lit first; backjump level)."""
        trail = self.trail
        level = self.level
        reason = self.reason
        seen = self._seen
        bump = self._activity is not None
        cur = len(self.trail_lim)
        touched: list[int] = []
        learnt: list[int] = []
        counter = 0
        p = 0
        idx = len(trail) - 1
        while True:
            for q in clause:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    touched.append(v)
                    if bump:
                        self._bump(v)
                    if level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            clause = reason[abs(p)]
        asserting = -p
        out = [asserting] + learnt
        if len(out) == 1:
            backjump = 0
        else:
            # second-highest level; move that literal next to the front for watching
            best = 1
            for k in range(2, len(out)):
                if level[abs(out[k])] > level[abs(out[best])]:
                    best = k
            out[1], out[best] = out[best], out[1]
            backjump = level[abs(out[1])]
        for v in touched:
            seen[v] = False
        if bump:
            self._act_inc /= 0.95
        return out, backjump

    def _bump(self, var: int) -> None:
        self._activity[var] += self._act_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.nvars + 1):
                self._activity[v] *= 1e-100
            self._act_inc *= 1e-100

    def _record_learnt(self, learnt: list[int]) -> None:
        if len(learnt) >= 2:
            self._watches[learnt[0]].append(learnt)
            self._watches[learnt[1]].append(learnt)
        if len(learnt) <= MAX_SHARED_LITERALS:
            # sorted now: propagation reorders the watched literals later
            self._short[tuple(sorted(learnt))] = None

    # -- branching -------------------------------------------------------------

    def _pick_branch(self) -> int | None:
        lv = self.lv
        free = [v for v in range(1, self.nvars + 1) if lv[v] == _UNASSIGNED]
        if self._activity is not None and free:  # max keeps the lowest-index of equals
            return max(free, key=self._activity.__getitem__)
        return free[0] if free else None

    def _model(self) -> tuple[int, ...]:
        return tuple(v if self.lv[v] == _TRUE else -v for v in range(1, self.nvars + 1))

    def _splits(self, base: tuple[int, ...], branch: int) -> tuple[tuple[int, ...], ...]:
        """The continuation plus one flip per free decision, most recent
        first; with no free decision, the two-way split on ``branch``, so
        every returned job is strictly narrower."""
        frees = [self.trail[start] for start in self.trail_lim[len(base):]]
        if not frees:
            return (base + (branch,), base + (-branch,))
        out = [base + tuple(frees)]
        for i in range(len(frees) - 1, -1, -1):
            out.append(base + tuple(frees[:i]) + (-frees[i],))
        return tuple(out)

    # -- main loop ---------------------------------------------------------------

    def solve(
        self, assumptions: Sequence[int] = (), limit: int | None = None, kind: str = "decisions"
    ) -> SolveOutcome:
        """Solve under ``assumptions`` within ``limit`` units of ``kind``.

        ``limit`` caps the conflicts when ``kind`` is ``"conflicts"`` and
        the decisions when it is ``"decisions"``; any other kind is a
        ValueError.  ``limit=None`` solves to completion.  Consistency of the
        assumption list is the caller's contract (a job from a checkpoint is
        validated on decode).
        """
        _check_kind(kind)
        by_conflicts = kind == "conflicts"
        base = tuple(assumptions)
        num_assumed = len(base)
        decisions = 0
        conflicts = 0

        def outcome(status: str, **kw) -> SolveOutcome:
            return SolveOutcome(
                status=status,
                learnt_clauses=tuple(self._short),
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
                level = len(self.trail_lim)
                if level == 0:
                    self.ok = False
                    return outcome("unsat", global_unsat=True)
                if level <= num_assumed:
                    # only assumption decisions above the conflict
                    return outcome("unsat", global_unsat=False)
                learnt, backjump = self._analyze(confl)
                self._record_learnt(learnt)
                self._cancel_until(backjump)
                self._enqueue(learnt[0], learnt)
                continue

            level = len(self.trail_lim)
            if level < num_assumed:
                lit = base[level]
                val = self.lv[lit]
                if val == _FALSE:
                    return outcome("unsat", global_unsat=False)
                self._new_level()
                if val == _UNASSIGNED:
                    self._enqueue(lit, None)
                continue

            branch = self._pick_branch()
            if branch is None:
                return outcome("sat", model=self._model())
            if limit is not None and (conflicts if by_conflicts else decisions) >= limit:
                return outcome("exhausted", splits=self._splits(base, branch))
            decisions += 1
            self._new_level()
            self._enqueue(branch, None)


def solve_budgeted(
    formula: CnfFormula,
    assumption: Sequence[int] = (),
    limit: int | None = None,
    kind: str = "decisions",
    shared_clauses: Sequence[Sequence[int]] = (),
    activity: Sequence[float] | None = None,
) -> SolveOutcome:
    """One-shot budgeted solve of ``formula`` under ``assumption``.

    ``shared_clauses`` were learnt elsewhere and are implied by the formula;
    a unit is a one-literal clause, and complementary units refute globally.
    A given ``activity`` means branching by activity, starting from it, as
    in :class:`CdclSolver`; ``None`` means branching by lowest index.
    """
    solver = CdclSolver(formula, shared_clauses, activity=activity)
    return solver.solve(assumption, limit, kind)
