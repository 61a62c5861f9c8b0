"""btsearch: parallel budgeted tree search.

A master/worker engine splits a tree-search computation into budgeted
jobs, balancing load by growing and shrinking the job list, with
master-mediated sharing of application data and checkpoint/restart.  The
master is also the only writer of the output.
Bundled applications: topological sorts, spanning trees, Galton-Watson
tree experiments, and a budgeted SAT solver.

The names below are imported from their module on first use (PEP 562), so
a run loads only the modules its application needs.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "budget": "Budget SchedulerConfig select_budget",
    "checkpoint": "checkpoint_read checkpoint_write",
    "engine": "Master RunReport SharedStore run",
    "errors": "BtsearchError CheckpointError EngineError InputFormatError MetricsError "
    "NodeDecodeError OracleConsistencyError WorkerCrashError",
    "metrics": "EfficiencyRecord compute_efficiency",
    "reverse_search": "AdjacencyOracle budgeted_search prune_filter",
    "search_api": "Application SearchResult",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str) -> Any:
    module = _MODULE_OF.get(name)
    if module is None:  # also how ``from btsearch import engine`` finds a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
