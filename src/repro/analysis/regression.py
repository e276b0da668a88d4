"""Ordinary least squares fitting for profiling data.

The SCAN knowledge base derives each application stage's execution-time
model by linear regression over profiled (input size, runtime) observations
(paper Section III-A.1.i and Section IV: "The values of a_i, b_i and c_i
were determined for each pipeline stage by linear regression of offline
profiling data").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LinearFit", "fit_linear"]


@dataclass(frozen=True)
class LinearFit:
    """Result of a one-dimensional affine fit ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float
    n: int
    residual_std: float

    def predict(self, x: float | np.ndarray) -> float | np.ndarray:
        """Predicted y for x (scalar or array)."""
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    def __call__(self, x: float) -> float:
        return float(self.slope * x + self.intercept)


def fit_linear(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Least-squares affine fit of *y* on *x*.

    Raises ``ValueError`` for fewer than two points or degenerate x.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of the same length")
    n = xa.size
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    # np.add.reduce(a) / n is what ndarray.mean computes, minus its Python
    # wrapper; d * d is what d ** 2 computes.  The floats are unchanged.
    x_mean = np.add.reduce(xa) / n
    y_mean = np.add.reduce(ya) / n
    dx = xa - x_mean
    dy = ya - y_mean
    sxx = float(np.add.reduce(dx * dx))
    if sxx == 0.0:
        raise ValueError("all x values are identical; slope is undefined")
    sxy = float(np.add.reduce(dx * dy))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean

    residuals = ya - (slope * xa + intercept)
    ss_res = float(np.add.reduce(residuals * residuals))
    ss_tot = float(np.add.reduce(dy * dy))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = max(n - 2, 1)
    residual_std = math.sqrt(ss_res / dof)
    return LinearFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        n=n,
        residual_std=residual_std,
    )

