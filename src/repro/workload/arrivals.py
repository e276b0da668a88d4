"""The batched stochastic arrival process.

Arrival events are a Poisson process (exponential inter-arrival times with
the Table I mean); each event carries a batch of jobs.  Batch counts and
job sizes are truncated normals with Table III's means and variances --
truncation keeps counts >= 1 and sizes > 0, preserving the paper's
"significant short-term workload variation" while staying physical.

Every draw comes from the session's own seeded ``arrivals`` stream, so
two sessions with the same seed see the same arrivals whatever their
policies: cross-policy comparisons are paired by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.config import WorkloadConfig
from repro.desim.engine import Environment

__all__ = ["ArrivalBatch", "BatchArrivalProcess"]

#: Smallest job size the generator will emit (GB-units).
MIN_JOB_SIZE = 0.25


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
    """Draws :class:`ArrivalBatch` events and delivers them in simulation."""

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

