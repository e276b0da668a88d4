"""Workload generation (paper Tables I and III).

"the arrival batch size and job size parameters were chosen to produce
significant short-term workload variation, such that the scaling and
resource allocation algorithms would experience a wide range of cluster
utilisation during a given simulation run" (Section IV-B).

- :mod:`repro.workload.arrivals` -- the batched stochastic arrival process:
  exponential inter-arrival intervals (mean 2.0-3.0 TU), batch sizes of
  mean 3 / variance 2 jobs, job sizes of mean 5 / variance 1 units.
- :mod:`repro.workload.jobs` -- job construction for an application or a
  compiled workflow.
"""

from repro.workload.arrivals import ArrivalBatch, BatchArrivalProcess
from repro.workload.jobs import JobFactory

__all__ = ["ArrivalBatch", "BatchArrivalProcess", "JobFactory"]
