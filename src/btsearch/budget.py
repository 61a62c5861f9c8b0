"""Scheduler configuration and the dynamic budget policy.

A budget bounds the work one worker may spend on a single job: a depth
limit and a limit on ``max_nodes`` units.  What a unit is belongs to the
application (a node for the enumeration apps; a decision or a conflict,
as the sat app is set up).  ``None`` means unbounded.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, NamedTuple


class _BudgetFields(NamedTuple):
    max_depth: int | None
    max_nodes: int | None


class Budget(_BudgetFields):
    """Per-job work limit handed to a worker; ValueError on a bad field."""

    __slots__ = ()

    def __init__(self, max_depth: int | None, max_nodes: int | None) -> None:
        # runs after the NamedTuple ``__new__`` has set the fields
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1 or None")

    # ``_replace`` builds through ``_make``: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))


class _ConfigFields(NamedTuple):
    num_workers: int = 4
    base_max_depth: int | None = 2
    base_max_nodes: int | None = 5000
    scale: int = 40
    lmin: float = 1.0
    lmax: float = 3.0
    checkpoint_path: str | Path | None = None
    restart_path: str | Path | None = None
    # Stop handing out jobs after collecting this many results, checkpoint,
    # and return an incomplete report (lets the user migrate a run); needs
    # a checkpoint_path.
    stop_after_jobs: int | None = None


class SchedulerConfig(_ConfigFields):
    """Knobs for one engine run; ValueError on an out-of-range field.

    ``base_max_depth``/``base_max_nodes``/``scale``/``lmin``/``lmax`` drive the
    dynamic budget policy; the remaining fields are run plumbing.  A *static*
    budget (one that never changes with job-list length) is obtained with
    ``scale=1`` plus either ``base_max_depth=None`` or ``lmin=lmax=inf``.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.base_max_depth is not None and self.base_max_depth < 1:
            raise ValueError("base_max_depth must be >= 1 or None")
        if self.base_max_nodes is not None and self.base_max_nodes < 1:
            raise ValueError("base_max_nodes must be >= 1 or None")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if not (self.lmin > 0 and self.lmax > 0):  # also rejects NaN
            raise ValueError("lmin and lmax must be positive")
        if self.lmin > self.lmax:
            raise ValueError("lmin must not exceed lmax")
        if self.stop_after_jobs is not None and self.stop_after_jobs < 1:
            raise ValueError("stop_after_jobs must be >= 1 or None")
        if self.stop_after_jobs is not None and self.checkpoint_path is None:
            # the jobs left at the stop live only in the checkpoint
            raise ValueError("stop_after_jobs needs a checkpoint_path")

    _make = classmethod(lambda cls, fields: cls(*fields))


def select_budget(joblist_len: int, config: SchedulerConfig) -> Budget:
    """Pick the budget for the next assignment from the job-list length.

    Short lists keep the aggressive depth limit so jobs split quickly; once
    the list passes ``lmin`` times the process count the depth limit is
    dropped, and past ``lmax`` times the node budget is multiplied by
    ``scale``.  The policy is stateless: budgets revert as the list shrinks.
    """
    size = config.num_workers + 2
    if joblist_len < size * config.lmin:
        max_depth = config.base_max_depth
    else:
        max_depth = None
    if joblist_len > size * config.lmax:
        max_nodes = (
            None if config.base_max_nodes is None else config.scale * config.base_max_nodes
        )
    else:
        max_nodes = config.base_max_nodes
    return Budget(max_depth=max_depth, max_nodes=max_nodes)
