"""Workload generation (paper Tables I and III).

"the arrival batch size and job size parameters were chosen to produce
significant short-term workload variation, such that the scaling and
resource allocation algorithms would experience a wide range of cluster
utilisation during a given simulation run" (Section IV-B).

- :mod:`repro.workload.arrivals` -- the batched stochastic arrival process:
  exponential inter-arrival intervals (mean 2.0-3.0 TU), batch sizes of
  mean 3 / variance 2 jobs, job sizes of mean 5 / variance 1 units; plus
  the :data:`~repro.workload.arrivals.ARRIVAL_PROCESSES` plugin registry
  (``"batch_poisson"`` default, ``"trace"`` replay).
- :mod:`repro.workload.jobs` -- job construction for an application or a
  compiled workflow.
- :mod:`repro.workload.traces` -- record/replay of arrival traces (JSONL
  on disk), for common-random-number comparisons and regression fixtures.
"""

from repro.workload.arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalBatch,
    BatchArrivalProcess,
    make_arrival_process,
)
from repro.workload.jobs import JobFactory
from repro.workload.traces import (
    ArrivalTrace,
    TraceArrivalProcess,
    load_trace_jsonl,
    record_trace,
    save_trace_jsonl,
)

__all__ = [
    "ArrivalBatch",
    "BatchArrivalProcess",
    "ARRIVAL_PROCESSES",
    "make_arrival_process",
    "JobFactory",
    "ArrivalTrace",
    "TraceArrivalProcess",
    "record_trace",
    "save_trace_jsonl",
    "load_trace_jsonl",
]
