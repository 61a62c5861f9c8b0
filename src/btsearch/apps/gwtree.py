"""Critical Galton-Watson trees: sampling, budgeted job-list dynamics, and
the √(πσ²/8b) growth law they validate.

A tree is represented by its depth-first offspring sequence ξ_1..ξ_N with
Σξ_i = N−1.  Enumerating such a tree under a node budget b splits it into
jobs exactly like any other application; the fraction of nodes returned
unexplored to the job list converges (in probability, as trees grow) to
``sqrt(pi * sigma2 / (8 b))``.

Each law records two second-moment values: ``variance`` is the exact
variance of the offspring distribution, while ``ratio_sigma2`` is the value
plugged into the growth-law prediction.  They coincide except for the
catalan law, where the published constant (3/2) disagrees with the direct
variance (1/2); we keep both and let the Monte-Carlo tests arbitrate.
"""

from __future__ import annotations

import gc
import math
from collections import deque
from itertools import islice
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple

from ..errors import InputFormatError, NodeDecodeError
from ..reverse_search import AdjacencyOracle
from . import npstream
from .base import EnumerationApplication, decode_ints, encode_ints

if TYPE_CHECKING:
    import numpy as np

LAW_NAMES = ("catalan", "fullbinary", "geometric", "poisson", "binomial", "uniform")

_CATALAN_VALUES = (0, 1, 1, 2)  # a uniform index into it gives {0: 1/4, 1: 1/2, 2: 1/4}

# The sampler draws an attempt's offspring in a first chunk of this many
# values, then in big chunks, and gives up after _MAX_ATTEMPTS attempts.
_FIRST_CHUNK = 4096
_BIG_CHUNK = 262_144
_MAX_ATTEMPTS = 2_000_000
# sample_offspring_list draws at most this many values in pure Python
# before numpy's sampler goes on: 20-45 ms, against the ≈170 ms numpy
# import that a tree found within them saves.
_PYTHON_LIMIT = 32_768


class OffspringLaw(NamedTuple):
    """A critical offspring distribution (mean exactly 1, finite variance)."""

    name: str
    variance: float
    ratio_sigma2: float
    k: int | None = None

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        import numpy as np

        if self.name == "catalan":
            return np.array(_CATALAN_VALUES, dtype=np.int64)[rng.integers(0, 4, size=size)]
        if self.name == "fullbinary":
            return 2 * rng.integers(0, 2, size=size, dtype=np.int64)
        if self.name == "geometric":
            return rng.geometric(0.5, size=size).astype(np.int64) - 1
        if self.name == "poisson":
            return rng.poisson(1.0, size=size).astype(np.int64)
        if self.name == "binomial":
            return rng.binomial(self.k, 1.0 / self.k, size=size).astype(np.int64)
        if self.name == "uniform":
            return rng.integers(0, 3, size=size, dtype=np.int64)
        raise InputFormatError(f"unknown offspring law {self.name!r}")

    def draws(self, seed: int, skip: int = 0) -> Iterator[int]:
        """The values ``draw`` takes from ``numpy.random.default_rng(seed)``
        once ``skip`` of its 64-bit outputs are spent, one at a time and
        without numpy; only for a law with a ``per_output``."""
        if self.name == "catalan":
            return npstream.table_draws(seed, _CATALAN_VALUES, skip)
        if self.name == "fullbinary":
            return npstream.table_draws(seed, (0, 2), skip)
        if self.name == "geometric":
            return map((-1).__add__, npstream.geometric(seed, 0.5, skip))
        raise ValueError(f"the {self.name} law has no pure-Python stream")

    @property
    def per_output(self) -> int | None:
        """How many values ``draw`` takes from each 64-bit output, for a law
        that ``draws`` follows without numpy: two 32-bit halves that a
        power-of-two range never rejects, or one double.  None for a law
        whose values take a varying number of outputs, so that a rejected
        attempt cannot be jumped over: numpy draws it from the start."""
        return {"catalan": 2, "fullbinary": 2, "geometric": 1}.get(self.name)


def make_law(name: str, k: int | None = None) -> OffspringLaw:
    """Build a named critical law, checking mean 1 and finite variance."""
    if k is not None and name in LAW_NAMES and name != "binomial":
        raise InputFormatError(f"{name} law takes no k (only binomial does)")
    if name == "catalan":
        # {0: 1/4, 1: 1/2, 2: 1/4}; direct variance 1/2, published constant 3/2
        return OffspringLaw("catalan", variance=0.5, ratio_sigma2=1.5)
    if name == "fullbinary":
        return OffspringLaw("fullbinary", variance=1.0, ratio_sigma2=1.0)
    if name == "geometric":
        # P(i) = 2^-(i+1)
        return OffspringLaw("geometric", variance=2.0, ratio_sigma2=2.0)
    if name == "poisson":
        return OffspringLaw("poisson", variance=1.0, ratio_sigma2=1.0)
    if name == "binomial":
        if k is None or k < 2:
            raise InputFormatError("binomial law needs k >= 2 (k=1 is the constant law)")
        var = 1.0 - 1.0 / k
        return OffspringLaw("binomial", variance=var, ratio_sigma2=var, k=k)
    if name == "uniform":
        # {0, 1, 2}: the one uniform law with mean 1
        return OffspringLaw("uniform", variance=2.0 / 3.0, ratio_sigma2=2.0 / 3.0)
    raise InputFormatError(f"unknown offspring law {name!r}; choose from {LAW_NAMES}")


def predicted_ratio(law: OffspringLaw, budget: int) -> float:
    """Growth-law prediction for unexplored-per-node under node budget b."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return math.sqrt(math.pi * law.ratio_sigma2 / (8.0 * budget))


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------


def sample_offspring_sequence(
    law: OffspringLaw,
    size_lo: int,
    size_hi: int,
    rng: np.random.Generator | int | None = None,
    max_attempts: int = _MAX_ATTEMPTS,
) -> np.ndarray:
    """Sample one unconditioned critical tree with total size in the window.

    The depth-first walk 1 + Σ(ξ_i − 1) is generated in chunks and the tree
    is accepted when it completes inside ``[size_lo, size_hi]``; attempts
    that die early or overrun the window are rejected.  Raises after
    ``max_attempts`` rejections (the window is too narrow).
    """
    import numpy as np

    _check_window(law, size_lo, size_hi)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    for _ in range(max_attempts):
        parts: list[np.ndarray] = []
        total = 0
        walk = 1  # open branches
        chunk_size = _FIRST_CHUNK
        accepted: np.ndarray | None = None
        while True:
            chunk = law.draw(rng, chunk_size)
            steps = np.cumsum(chunk) - np.arange(1, chunk_size + 1) + (walk - 1)
            hits = np.nonzero(steps == -1)[0]
            if hits.size:
                cut = int(hits[0]) + 1
                total += cut
                if size_lo <= total <= size_hi:
                    parts.append(chunk[:cut])
                    accepted = np.concatenate(parts)
                break
            total += chunk_size
            if total > size_hi:
                break
            parts.append(chunk)
            walk = int(steps[-1]) + 1
            chunk_size = _BIG_CHUNK
        if accepted is not None:
            return accepted
    raise _no_tree(size_lo, size_hi, max_attempts)


def _check_window(law: OffspringLaw, size_lo: int, size_hi: int) -> None:
    if not 1 <= size_lo <= size_hi:
        raise ValueError("need 1 <= size_lo <= size_hi")
    if law.name == "fullbinary" and size_lo == size_hi and size_lo % 2 == 0:
        raise ValueError(f"a fullbinary tree has an odd size; widen [{size_lo}, {size_hi}]")


def _no_tree(size_lo: int, size_hi: int, attempts: int) -> InputFormatError:
    return InputFormatError(
        f"no tree of size in [{size_lo}, {size_hi}] found in {attempts} attempts; "
        "widen the size window"
    )


def sample_offspring_list(law: OffspringLaw, size_lo: int, size_hi: int, seed: int) -> list[int]:
    """``sample_offspring_sequence(law, size_lo, size_hi, rng=seed)`` as a
    list, with numpy imported only if pure Python has not found it after
    drawing ``_PYTHON_LIMIT`` values one at a time.

    Each attempt draws values until its walk closes or passes ``size_hi``.
    numpy's sampler also draws the rest of that attempt's last chunk, which
    the next attempt jumps over, and goes on from the attempt Python left
    open.  A law with no ``per_output`` cannot jump, so numpy's sampler
    draws it from the start.
    """
    _check_window(law, size_lo, size_hi)
    # Past the first attempt the search goes on only where it finds the
    # tree within the limit at least one time in five: then the numpy import
    # it saves pays for the search where it fails.  A critical tree has at
    # least n nodes with probability ≈ c/√n whatever the law, so an attempt
    # draws ≈ 2c√(hi+1) values and lands with probability ≈ c/√lo − c/√(hi+1).
    expected = 2 * math.sqrt(size_hi + 1) / (size_lo**-0.5 - (size_hi + 1) ** -0.5)
    hopeful = expected * math.log(5 / 4) <= _PYTHON_LIMIT
    per_output = law.per_output
    attempts = outputs = 0  # rejected so far, and the 64-bit outputs they took
    limit = _PYTHON_LIMIT
    while per_output:  # else numpy draws every attempt
        offspring: list[int] = []
        walk = 1  # open branches
        for value in islice(law.draws(seed, outputs), min(size_hi + 1, limit)):
            offspring.append(value)
            walk += value - 1
            if not walk:
                break
        n = len(offspring)
        limit -= n
        if not walk and size_lo <= n <= size_hi:
            return offspring
        if walk and n <= size_hi:
            break  # the limit came first
        attempts += 1
        # numpy's sampler drew the attempt in whole chunks, up to the one
        # that holds its n-th value
        chunks = -(-max(0, n - _FIRST_CHUNK) // _BIG_CHUNK)
        outputs += (_FIRST_CHUNK + chunks * _BIG_CHUNK) // per_output
        if not hopeful:
            break
    import numpy as np

    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(outputs)
    try:
        found = sample_offspring_sequence(law, size_lo, size_hi, rng, _MAX_ATTEMPTS - attempts)
    except InputFormatError:
        raise _no_tree(size_lo, size_hi, _MAX_ATTEMPTS) from None
    return found.tolist()


def subtree_sizes(offspring: np.ndarray) -> np.ndarray:
    """Subtree size of every node of a depth-first offspring sequence.

    In depth-first order the subtree of node i is the contiguous index range
    [i, i + size_i); its end is the first position where the running walk
    drops below its value on entering i.  Computed with a grouped
    next-smaller-element search, O(n log n) with numpy.
    """
    import numpy as np

    xi = np.asarray(offspring, dtype=np.int64)
    n = int(xi.shape[0])
    if n == 0:
        raise ValueError("empty offspring sequence")
    cum = np.cumsum(xi - 1)
    if cum[-1] != -1 or (n > 1 and (cum[:-1] < 0).any()):
        raise ValueError("offspring sequence does not encode one complete tree")
    before = np.empty(n, dtype=np.int64)
    before[0] = 0
    before[1:] = cum[:-1]
    vals = cum + 1  # >= 0
    targets = before  # == (before - 1) + 1
    order = np.argsort(vals, kind="stable")
    counts = np.bincount(vals)
    starts = np.concatenate(([0], np.cumsum(counts)))
    sizes = np.empty(n, dtype=np.int64)
    qorder = np.argsort(targets, kind="stable")
    tvals = targets[qorder]
    bounds = np.nonzero(np.diff(tvals))[0] + 1
    for grp in np.split(qorder, bounds):
        v = int(targets[grp[0]])
        seg = order[starts[v] : starts[v + 1]]
        ends = seg[np.searchsorted(seg, grp)]
        sizes[grp] = ends - grp + 1
    return sizes


# --------------------------------------------------------------------------
# Budgeted job-list dynamics
# --------------------------------------------------------------------------


class JobRunStats(NamedTuple):
    """Totals from processing one tree through the budgeted job loop."""

    tree_size: int
    unexplored_total: int
    jobs: int
    counts: list[int]


def run_budgeted_jobs(sizes: np.ndarray, budget: int | None) -> JobRunStats:
    """Process one tree as a FIFO job list under a node budget.

    Uses the subtree-size array to jump straight to each job's budget-
    exhaustion point: the b-th node visited from start s is index s+b, and
    the unexplored returns are that node plus every later sibling along its
    ancestor path, exactly as the generic budgeted traversal would flag
    (each is one more counted forward step).
    """
    n = int(sizes.shape[0])
    jobs: deque[int] = deque([0])
    unexplored_total = done = 0
    counts: list[int] = []
    while jobs:
        s = jobs.popleft()
        done += 1
        remaining = int(sizes[s]) - 1
        if budget is None or remaining < budget:
            counts.append(remaining)
            continue
        x = s + budget
        levels: list[list[int]] = []
        a = s
        while a != x:
            end = a + int(sizes[a])
            c = a + 1
            on_path = -1
            later: list[int] = []
            while c < end:
                if on_path < 0:
                    if c == x or c < x < c + int(sizes[c]):
                        on_path = c
                else:
                    later.append(c)
                c += int(sizes[c])
            if on_path < 0:
                raise ValueError("corrupt subtree sizes: lost the descent path")
            levels.append(later)
            a = on_path
        flagged = [x]
        for later in reversed(levels):
            flagged.extend(later)
        jobs.extend(flagged)
        unexplored_total += len(flagged)
        counts.append(budget + len(flagged) - 1)
    return JobRunStats(n, unexplored_total, done, counts)


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------


class GWExperiment(NamedTuple):
    """Trial plan for measuring the job-list growth law."""

    law: OffspringLaw
    target_size: int
    budget: int
    trials: int
    seed: int = 0

    def window(self) -> tuple[int, int]:
        # rejection window: +/- 50% around the target size
        return max(1, self.target_size // 2), self.target_size + self.target_size // 2


class TrialRow(NamedTuple):
    trial: int
    size: int
    budget: int
    jobs: int
    ratio: float
    predicted: float


class GWExperimentResult(NamedTuple):
    experiment: GWExperiment
    rows: list[TrialRow]

    @property
    def mean_ratio(self) -> float:
        return sum(r.ratio for r in self.rows) / len(self.rows)

    @property
    def predicted(self) -> float:
        return predicted_ratio(self.experiment.law, self.experiment.budget)


def measure_joblist_ratio(experiment: GWExperiment) -> GWExperimentResult:
    """Run the experiment: sample trees, process them budgeted, report ratios.

    Trials use independent generators seeded from (seed, trial) so results
    are reproducible and order-independent.
    """
    import numpy as np

    if experiment.trials < 1:
        raise ValueError("need at least one trial")
    lo, hi = experiment.window()
    pred = predicted_ratio(experiment.law, experiment.budget)
    rows: list[TrialRow] = []
    for trial in range(experiment.trials):
        rng = np.random.default_rng([experiment.seed, trial])
        xi = sample_offspring_sequence(experiment.law, lo, hi, rng)
        sizes = subtree_sizes(xi)
        stats = run_budgeted_jobs(sizes, experiment.budget)
        rows.append(
            TrialRow(
                trial=trial,
                size=stats.tree_size,
                budget=experiment.budget,
                jobs=stats.jobs,
                ratio=stats.unexplored_total / stats.tree_size,
                predicted=pred,
            )
        )
    return GWExperimentResult(experiment=experiment, rows=rows)


def write_experiment_csv(result: GWExperimentResult, out: IO[str]) -> None:
    out.write("trial,size,b,jobs,ratio,predicted\n")
    for r in result.rows:
        out.write(f"{r.trial},{r.size},{r.budget},{r.jobs},{r.ratio:.8f},{r.predicted:.8f}\n")


# --------------------------------------------------------------------------
# Engine application (small trees through the generic machinery)
# --------------------------------------------------------------------------


class GWTreeOracle(AdjacencyOracle):
    """Child-index adjacency over a sampled tree; parent is the DFS parent."""

    def __init__(self, sizes: np.ndarray) -> None:
        sizes = sizes.tolist()  # Python ints: one conversion, not one per step
        n = len(sizes)
        children: list[list[int]] = [[] for _ in range(n)]
        parent: list[tuple[int, int] | None] = [None] * n
        for node in range(n):
            end = node + sizes[node]
            kids = children[node]
            c = node + 1
            while c < end:
                kids.append(c)
                parent[c] = (node, len(kids))
                c += sizes[c]
        self._set_tables(children, parent)

    @classmethod
    def from_offspring(cls, offspring: Iterable[int]) -> GWTreeOracle:
        """The oracle of the tree whose depth-first offspring sequence begins
        ``offspring``, read in one pass up to the tree's last node."""
        values = iter(offspring)
        first = next(values, None)
        if first is None:
            raise ValueError("empty offspring sequence")
        children: list[list[int]] = [[]]
        parent: list[tuple[int, int] | None] = [None]
        kids, p, left = children[0], 0, first  # the node whose children come next
        stack: list[tuple[list[int], int, int]] = []  # the same for its ancestors
        collecting = gc.isenabled()
        # The tables hold no cycles, so collections during the build would
        # only rescan them: about 3 ms of a 20k-node init.
        gc.disable()
        try:
            if first:
                for node, k in enumerate(values, 1):
                    kids.append(node)
                    parent.append((p, len(kids)))
                    own = []
                    children.append(own)
                    left -= 1
                    if k:
                        if left:
                            stack.append((kids, p, left))
                        kids, p, left = own, node, k
                    elif not left:
                        if not stack:
                            break  # the tree is complete
                        kids, p, left = stack.pop()
                else:
                    raise ValueError("offspring sequence ends before its tree does")
        finally:
            if collecting:
                gc.enable()
        oracle = cls.__new__(cls)
        oracle._set_tables(children, parent)
        return oracle

    def _set_tables(
        self, children: list[list[int]], parent: list[tuple[int, int] | None]
    ) -> None:
        self.n = len(children)
        self._children = children
        self._parent = parent
        self.max_degree = max(map(len, children), default=0)

    def root(self) -> int:
        return 0

    def adjacent(self, vertex: int, j: int) -> int | None:
        kids = self._children[vertex]
        return kids[j - 1] if j <= len(kids) else None

    def parent(self, vertex: int) -> tuple[int, int] | None:
        return self._parent[vertex]

    def children(self, vertex: int) -> Iterator[int]:
        return iter(self._children[vertex])


class GWTreeApplication(EnumerationApplication):
    """Engine plug-in: input ``law size_lo size_hi seed [k]`` (k for binomial
    only) samples one tree deterministically, then enumerates its nodes
    under the usual budgets.

    The tree is the one ``sample_offspring_sequence(law, size_lo, size_hi,
    rng=seed)`` returns, found by ``sample_offspring_list``.  A job is a
    node id in depth-first order, the root's being 0.
    """

    name = "gwtree"

    def init(self, input_bytes: bytes) -> tuple[GWTreeOracle, int]:
        text = input_bytes.decode("ascii", errors="replace")
        parts = text.split()
        if len(parts) not in (4, 5):
            raise InputFormatError("gwtree input must be 'law size_lo size_hi seed [k]'")
        try:
            lo, hi, seed = int(parts[1]), int(parts[2]), int(parts[3])
            k = int(parts[4]) if len(parts) == 5 else None
        except ValueError as exc:
            raise InputFormatError(f"bad gwtree input numbers: {exc}") from exc
        law = make_law(parts[0], k=k)
        try:
            offspring = sample_offspring_list(law, lo, hi, seed)
        except ValueError as exc:  # a bad size window or seed
            raise InputFormatError(f"bad gwtree input: {exc}") from exc
        return GWTreeOracle.from_offspring(offspring), 0

    def format_vertex(self, global_data: GWTreeOracle, vertex: int) -> str:
        return str(vertex)

    def encode_node(self, vertex: int) -> bytes:
        return encode_ints((vertex,))

    def decode_node(self, payload: bytes, global_data: GWTreeOracle) -> int:
        node = decode_ints(payload, "gwtree node")
        if len(node) != 1 or not 0 <= node[0] < global_data.n:
            raise NodeDecodeError(f"not a node of this gwtree: {payload!r}")
        return node[0]
