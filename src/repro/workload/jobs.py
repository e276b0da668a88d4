"""Job construction for arrival batches."""

from __future__ import annotations

from typing import Optional

from repro.apps.base import ApplicationModel
from repro.scheduler.tasks import Job
from repro.workflows.compiled import CompiledWorkflow
from repro.workload.arrivals import ArrivalBatch

__all__ = ["JobFactory"]


class JobFactory:
    """Builds :class:`~repro.scheduler.tasks.Job` objects for one app.

    When a compiled *workflow* is supplied every job carries it, so the
    scheduler runs the DAG natively; without one, jobs keep the legacy
    app-chain shape.
    """

    def __init__(
        self,
        app: ApplicationModel,
        name_prefix: str = "",
        size_unit_gb: float = 1.0,
        workflow: Optional[CompiledWorkflow] = None,
    ) -> None:
        if size_unit_gb <= 0:
            raise ValueError("size_unit_gb must be positive")
        self.app = app
        self.name_prefix = name_prefix or app.name
        self.size_unit_gb = size_unit_gb
        self.workflow = workflow
        self._counter = 0

    @property
    def created(self) -> int:
        return self._counter

    def make_job(self, size: float, submit_time: float) -> Job:
        """One job of *size* units submitted at *submit_time*."""
        self._counter += 1
        return Job(
            app=self.app,
            size=size,
            submit_time=submit_time,
            name=f"{self.name_prefix}-{self._counter:05d}",
            input_gb=size * self.size_unit_gb,
            workflow=self.workflow,
        )

    def from_batch(self, batch: ArrivalBatch) -> list[Job]:
        """One job per size in the batch, submitted at the batch time."""
        return [self.make_job(size, batch.time) for size in batch.sizes]
