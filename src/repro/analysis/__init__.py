"""Statistics and model-fitting substrate.

The paper fits per-stage linear execution-time models ``E_i(d) = a_i d + b_i``
and Amdahl serial fractions ``c_i`` from offline profiling data (Section IV,
Table II), and reports all measurements as mean +/- one standard deviation
over ten repetitions.  This package provides those tools from scratch:

- :mod:`repro.analysis.regression` -- ordinary least squares, fit quality.
- :mod:`repro.analysis.amdahl` -- the Amdahl's-law threading model and
  fitting its parallel fraction.
- :mod:`repro.analysis.stats` -- summary statistics, error bars and
  cross-run aggregation.
"""

from repro.analysis.regression import LinearFit, fit_linear
from repro.analysis.amdahl import amdahl_time, fit_parallel_fraction
from repro.analysis.stats import SummaryStats, summarize, aggregate_runs

__all__ = [
    "LinearFit",
    "fit_linear",
    "amdahl_time",
    "fit_parallel_fraction",
    "SummaryStats",
    "summarize",
    "aggregate_runs",
]
