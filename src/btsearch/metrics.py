"""Run instrumentation files and the efficiency arithmetic."""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import MetricsError


class EfficiencyRecord(NamedTuple):
    """Parallel efficiency of a run against its single-core baseline."""

    single_core_s: float
    cores: int
    multicore_s: float
    efficiency: float
    speedup: float


def compute_efficiency(single_core_s: float, cores: int, multicore_s: float) -> EfficiencyRecord:
    """efficiency = single / (cores * multi); speedup = efficiency * cores."""
    if not (0 < single_core_s < math.inf and 0 < multicore_s < math.inf and cores > 0):
        raise MetricsError("times must be positive and finite, and the core count positive")
    eff = single_core_s / (cores * multicore_s)
    return EfficiencyRecord(
        single_core_s=single_core_s,
        cores=cores,
        multicore_s=multicore_s,
        efficiency=eff,
        speedup=eff * cores,
    )


def write_frequency_file(frequencies: Sequence[int], path: str | Path) -> bool:
    """One budget-units-consumed value per line, in job completion order.

    Returns False when the path is unwritable; the run result is unaffected.
    """
    try:
        Path(path).write_text("".join(f"{v}\n" for v in frequencies), encoding="ascii")
        return True
    except OSError:
        return False


def write_histogram_file(samples: Sequence[tuple[float, int, int]], path: str | Path) -> bool:
    """CSV time series ``elapsed_seconds,busy_workers,joblist_len``; False
    when the path is unwritable."""
    rows = ["elapsed_seconds,busy_workers,joblist_len"]
    rows += [f"{t:.3f},{busy},{jl}" for t, busy, jl in samples]
    try:
        Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")
        return True
    except OSError:
        return False
