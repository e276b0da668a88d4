"""Amdahl's-law threading models.

The paper models multi-threaded stage execution as

    T_i(t, d) = c_i * E_i(d) / t + (1 - c_i) * E_i(d)

where ``c_i`` is the perfectly-parallelisable fraction of the stage and
``t`` the thread count (Section IV.1).  This module provides the forward
model and its inverse (fitting ``c`` from measured speedups).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "amdahl_time",
    "fit_parallel_fraction",
]


def amdahl_time(base_time: float, threads: int, parallel_fraction: float) -> float:
    """Threaded execution time per the paper's model.

    ``base_time`` is the single-threaded execution time ``E_i(d)``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not 0.0 <= parallel_fraction <= 1.0:
        raise ValueError(f"parallel fraction must lie in [0, 1], got {parallel_fraction}")
    if base_time < 0:
        raise ValueError(f"negative base time {base_time}")
    return parallel_fraction * base_time / threads + (1.0 - parallel_fraction) * base_time


def fit_parallel_fraction(
    threads: Sequence[int], times: Sequence[float]
) -> float:
    """Least-squares estimate of ``c`` from measured (threads, time) pairs.

    Rearranging the model: ``T(t) = E * (1 - c) + (E * c) / t`` is affine in
    ``1/t``, so an OLS fit of time on ``1/t`` recovers ``E*c`` (slope) and
    ``E*(1-c)`` (intercept); then ``c = slope / (slope + intercept)``.

    The result is clipped to [0, 1]: measurement noise can push the raw
    estimate slightly outside the physical range.
    """
    t = np.asarray(threads, dtype=float)
    y = np.asarray(times, dtype=float)
    if t.shape != y.shape or t.ndim != 1 or t.size < 2:
        raise ValueError("need matching 1-d arrays with at least 2 points")
    if np.any(t < 1):
        raise ValueError("thread counts must be >= 1")
    if np.all(t == t[0]):
        raise ValueError("need at least two distinct thread counts")
    inv_t = 1.0 / t
    x_mean, y_mean = inv_t.mean(), y.mean()
    sxx = float(np.sum((inv_t - x_mean) ** 2))
    sxy = float(np.sum((inv_t - x_mean) * (y - y_mean)))
    slope = sxy / sxx  # = E * c
    intercept = y_mean - slope * x_mean  # = E * (1 - c)
    total = slope + intercept  # = E
    if total <= 0:
        return 0.0
    return float(np.clip(slope / total, 0.0, 1.0))

