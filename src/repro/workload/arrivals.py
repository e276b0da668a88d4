"""The batched stochastic arrival process.

Arrival events are a Poisson process (exponential inter-arrival times with
the Table I mean); each event carries a batch of jobs.  Batch counts and
job sizes are truncated normals with Table III's means and variances --
truncation keeps counts >= 1 and sizes > 0, preserving the paper's
"significant short-term workload variation" while staying physical.

Arrival generators are pluggable through :data:`ARRIVAL_PROCESSES`, the
same registry shape as ``LEDGERS``/``PRIORITY_STRATEGIES``: the Poisson
generator is the ``"batch_poisson"`` default, and ``"trace"`` replays a
recorded JSONL arrival log (:mod:`repro.workload.traces`) for
reproducible cross-policy comparisons on identical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Protocol

import numpy as np

from repro.core.config import WorkloadConfig
from repro.core.errors import WorkloadError
from repro.core.plugins import Registry
from repro.desim.engine import Environment

__all__ = [
    "ArrivalBatch",
    "ArrivalProcess",
    "BatchArrivalProcess",
    "ARRIVAL_PROCESSES",
    "make_arrival_process",
]

#: Smallest job size the generator will emit (GB-units).
MIN_JOB_SIZE = 0.25


class ArrivalProcess(Protocol):
    """What the session loop needs from an arrival generator."""

    def generate(self, duration: float) -> "Iterator[ArrivalBatch]":
        """Yield all batches arriving in [0, duration)."""
        ...

    def run(
        self,
        env: Environment,
        on_batch: "Callable[[ArrivalBatch], None]",
        until: Optional[float] = None,
    ):
        """Simulation process delivering batches as time passes."""
        ...


@dataclass(frozen=True)
class ArrivalBatch:
    """One arrival event: a timestamp and the sizes of its jobs."""

    time: float
    sizes: tuple[float, ...]

    @property
    def n_jobs(self) -> int:
        return len(self.sizes)

    @property
    def total_size(self) -> float:
        return float(sum(self.sizes))


class BatchArrivalProcess:
    """Generates :class:`ArrivalBatch` sequences, standalone or in-sim."""

    def __init__(self, config: WorkloadConfig, rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        self.rng = rng

    # -- draws ------------------------------------------------------------
    def draw_interval(self) -> float:
        """Next inter-arrival interval (exponential)."""
        return float(self.rng.exponential(self.config.mean_interarrival))

    def draw_batch_count(self) -> int:
        """Jobs in the next batch: truncated normal, >= 1."""
        std = np.sqrt(self.config.jobs_per_arrival_var)
        count = self.rng.normal(self.config.jobs_per_arrival_mean, std)
        return max(int(round(count)), 1)

    def draw_job_size(self) -> float:
        """One job's size: truncated normal, >= MIN_JOB_SIZE."""
        std = np.sqrt(self.config.job_size_var)
        size = self.rng.normal(self.config.job_size_mean, std)
        return float(max(size, MIN_JOB_SIZE))

    def draw_batch(self, time: float) -> ArrivalBatch:
        """One arrival event with drawn job sizes."""
        count = self.draw_batch_count()
        sizes = tuple(self.draw_job_size() for _ in range(count))
        return ArrivalBatch(time=time, sizes=sizes)

    # -- offline generation ------------------------------------------------
    def generate(self, duration: float) -> Iterator[ArrivalBatch]:
        """Yield all batches arriving in [0, duration)."""
        if duration <= 0:
            raise WorkloadError("duration must be positive")
        t = self.draw_interval()
        while t < duration:
            yield self.draw_batch(t)
            t += self.draw_interval()

    # -- in-simulation process ----------------------------------------------
    def run(
        self,
        env: Environment,
        on_batch: Callable[[ArrivalBatch], None],
        until: Optional[float] = None,
    ):
        """Process: deliver batches to *on_batch* as simulated time passes."""
        while True:
            interval = self.draw_interval()
            if until is not None and env.now + interval >= until:
                return
            yield env.timeout(interval)
            on_batch(self.draw_batch(env.now))

    def expected_load_rate(self) -> float:
        """Mean job-size units arriving per TU (offered load)."""
        return (
            self.config.jobs_per_arrival_mean
            * self.config.job_size_mean
            / self.config.mean_interarrival
        )


#: Plugin registry of arrival-process factories.  Factories receive the
#: workload config and an ``np.random.Generator`` keyword; trace-backed
#: processes read their path from ``config.arrival_trace``.
ARRIVAL_PROCESSES: "Registry[ArrivalProcess]" = Registry("arrival")


@ARRIVAL_PROCESSES.register("batch_poisson")
def _make_batch_poisson(
    config: WorkloadConfig, rng: np.random.Generator
) -> ArrivalProcess:
    return BatchArrivalProcess(config, rng)


@ARRIVAL_PROCESSES.register("trace")
def _make_trace(
    config: WorkloadConfig, rng: np.random.Generator
) -> ArrivalProcess:
    # Function-level import: traces.py imports ArrivalBatch from here.
    from repro.workload.traces import TraceArrivalProcess

    if not config.arrival_trace:
        raise WorkloadError(
            "trace arrivals need workload.arrival_trace (a JSONL path "
            "recorded with repro.workload.traces.save_trace_jsonl)"
        )
    return TraceArrivalProcess.from_jsonl(config.arrival_trace)


def make_arrival_process(
    kind: str, config: WorkloadConfig, rng: np.random.Generator
) -> ArrivalProcess:
    """Instantiate the arrival process named by *kind*.

    A thin :data:`ARRIVAL_PROCESSES` lookup; unknown names raise
    :class:`~repro.core.errors.ConfigurationError` listing what is
    registered.
    """
    return ARRIVAL_PROCESSES.create(kind, config=config, rng=rng)
