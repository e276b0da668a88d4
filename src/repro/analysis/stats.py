"""Summary statistics and cross-run aggregation.

"All measurements were repeated 10 times, and all error bars represent a
single standard deviation either side of the mean" (paper Section IV-B).
:func:`aggregate_runs` implements exactly that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "SummaryStats",
    "summarize",
    "aggregate_runs",
]


@dataclass(frozen=True)
class SummaryStats:
    """Mean +/- sample standard deviation over n observations."""

    mean: float
    std: float
    n: int
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return f"{self.mean:.3f} +/- {self.std:.3f} (n={self.n})"


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summary statistics of *values* (sample std, ddof=1)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sequence")
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return SummaryStats(
        mean=float(arr.mean()),
        std=std,
        n=int(arr.size),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def aggregate_runs(
    per_run_values: Iterable[Mapping[str, float]],
) -> dict[str, SummaryStats]:
    """Aggregate repeated-run metric dicts into per-metric summaries.

    Each element of *per_run_values* is one run's ``{metric: value}``; all
    runs must report the same metric keys.
    """
    runs = list(per_run_values)
    if not runs:
        raise ValueError("no runs to aggregate")
    keys = set(runs[0])
    for i, run in enumerate(runs[1:], start=2):
        if set(run) != keys:
            raise ValueError(f"run {i} reports different metrics than run 1")
    return {key: summarize([run[key] for run in runs]) for key in sorted(keys)}

