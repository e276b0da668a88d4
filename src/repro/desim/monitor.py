"""Instrumentation: time-series recorders and time-weighted statistics.

The paper reports profit per pipeline run, reward-to-cost ratios and
utilisation, all with error bars over repeated runs.  These monitors collect
the raw series inside one simulation; cross-run aggregation lives in
:mod:`repro.analysis.stats`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Monitor", "TimeWeightedMonitor"]


class Monitor:
    """Records ``(time, value)`` observations and summarises them.

    Plain (unweighted) statistics: suitable for per-completion observations
    such as "profit of this pipeline run".
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def observe(self, time: float, value: float) -> None:
        """Record *value* observed at *time* (times must not decrease)."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"observation at t={time} precedes last at t={self._times[-1]}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def mean(self) -> float:
        """Arithmetic mean of the observed values."""
        if not self._values:
            return float("nan")
        return float(np.mean(self._values))

    def std(self) -> float:
        """Sample standard deviation (0 for fewer than 2 points)."""
        if len(self._values) < 2:
            return 0.0
        return float(np.std(self._values, ddof=1))

    def total(self) -> float:
        """Sum of the observed values."""
        return float(np.sum(self._values)) if self._values else 0.0

    def min(self) -> float:
        """Smallest observed value."""
        return float(np.min(self._values)) if self._values else float("nan")

    def max(self) -> float:
        """Largest observed value."""
        return float(np.max(self._values)) if self._values else float("nan")

    def percentile(self, q: float) -> float:
        """The q-th percentile of the observed values."""
        if not self._values:
            return float("nan")
        return float(np.percentile(self._values, q))

    def window(self, start: float, end: float) -> "Monitor":
        """A new monitor holding only observations with start <= t < end."""
        out = Monitor(self.name)
        for t, v in zip(self._times, self._values):
            if start <= t < end:
                out.observe(t, v)
        return out

    def summary(self) -> dict[str, float]:
        """Count/mean/std/min/max/percentiles/total as a dict.

        The percentile keys are NaN on an empty monitor (like mean/min/max),
        never an exception, so report code can render them unconditionally.
        """
        return {
            "count": float(len(self)),
            "mean": self.mean(),
            "std": self.std(),
            "min": self.min(),
            "max": self.max(),
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "total": self.total(),
        }


class TimeWeightedMonitor:
    """Tracks a piecewise-constant level and integrates it over time.

    Suitable for queue lengths, busy cores, hired VMs: ``set_level`` at each
    change, then :meth:`time_average` gives the level's time-weighted mean.
    Only the running area, duration and peak are kept, never the change
    log, so a monitor costs the same bytes however often it changes.
    """

    def __init__(self, name: str = "", initial: float = 0.0, start_time: float = 0.0):
        self.name = name
        self._level = float(initial)
        self._last_time = float(start_time)
        self._area = 0.0
        self._duration = 0.0
        self._peak = float(initial)

    @property
    def level(self) -> float:
        return self._level

    @property
    def peak(self) -> float:
        return self._peak

    def set_level(self, time: float, level: float) -> None:
        """Record a level change at *time*."""
        if time < self._last_time:
            raise ValueError(
                f"time {time} precedes last update at {self._last_time}"
            )
        dt = time - self._last_time
        self._area += self._level * dt
        self._duration += dt
        self._last_time = time
        self._level = float(level)
        self._peak = max(self._peak, self._level)

    def add(self, time: float, delta: float) -> None:
        """Shift the level by *delta* at *time*."""
        self.set_level(time, self._level + delta)

    def time_average(self, until: float | None = None) -> float:
        """Time-weighted mean level up to *until* (default: last update)."""
        area, duration = self._area, self._duration
        if until is not None:
            if until < self._last_time:
                raise ValueError("'until' precedes the last update")
            extra = until - self._last_time
            area += self._level * extra
            duration += extra
        if duration <= 0:
            return self._level
        return area / duration

    def integral(self, until: float | None = None) -> float:
        """Integral of the level over time (e.g. core-hours consumed)."""
        area = self._area
        if until is not None:
            if until < self._last_time:
                raise ValueError("'until' precedes the last update")
            area += self._level * (until - self._last_time)
        return area

