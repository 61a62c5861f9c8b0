"""btsearch: parallel budgeted tree search.

A master/worker engine splits a tree-search computation into budgeted
jobs, balancing load by growing and shrinking the job list, with
master-mediated sharing of application data and checkpoint/restart.  The
master is also the only writer of the output.
Bundled applications: topological sorts, spanning trees, Galton-Watson
tree experiments, and a budgeted SAT solver.
"""

from .budget import Budget, SchedulerConfig, select_budget
from .checkpoint import checkpoint_read, checkpoint_write
from .engine import Master, RunReport, SharedStore, run
from .errors import (
    BtsearchError,
    CheckpointError,
    EngineError,
    InputFormatError,
    MetricsError,
    NodeDecodeError,
    OracleConsistencyError,
    WorkerCrashError,
)
from .metrics import EfficiencyRecord, compute_efficiency
from .reverse_search import (
    AdjacencyOracle,
    budgeted_search,
    prune_filter,
    reverse_search,
)
from .search_api import Application, SearchResult

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "SchedulerConfig",
    "select_budget",
    "checkpoint_read",
    "checkpoint_write",
    "Master",
    "RunReport",
    "SharedStore",
    "run",
    "BtsearchError",
    "CheckpointError",
    "EngineError",
    "InputFormatError",
    "MetricsError",
    "NodeDecodeError",
    "OracleConsistencyError",
    "WorkerCrashError",
    "EfficiencyRecord",
    "compute_efficiency",
    "AdjacencyOracle",
    "budgeted_search",
    "prune_filter",
    "reverse_search",
    "Application",
    "SearchResult",
    "__version__",
]
