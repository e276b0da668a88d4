"""Per-stage FIFO task queues with wait-time instrumentation.

"It maintains an in-memory pool of available workers and a FIFO queue of
pending tasks per class" (paper Section III-B).  For the GATK pipeline the
classes are the seven stages; :class:`QueueSet` owns one
:class:`StageQueue` each.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from repro.core.errors import SchedulingError
from repro.desim.monitor import TimeWeightedMonitor
from repro.scheduler.tasks import StageTask

__all__ = ["StageQueue", "QueueSet"]


class StageQueue:
    """FIFO queue for one pipeline stage."""

    def __init__(self, stage: int, start_time: float = 0.0) -> None:
        self.stage = stage
        self._tasks: deque[StageTask] = deque()
        self.length_monitor = TimeWeightedMonitor(
            f"queue-s{stage}", initial=0.0, start_time=start_time
        )
        self.enqueued_total = 0
        self.dispatched_total = 0

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[StageTask]:
        """Iterate waiting tasks front-to-back (for Eq. 1's sum over Q)."""
        return iter(self._tasks)

    @property
    def empty(self) -> bool:
        return not self._tasks

    def push(self, task: StageTask, now: float) -> None:
        """Append a task (stage-checked) and log the length."""
        if task.stage != self.stage:
            raise SchedulingError(
                f"task for stage {task.stage} pushed to queue {self.stage}"
            )
        self._tasks.append(task)
        self.enqueued_total += 1
        self.length_monitor.set_level(now, len(self._tasks))

    def peek(self) -> Optional[StageTask]:
        """The task at the front, without removing it."""
        return self._tasks[0] if self._tasks else None

    def pop(self, now: float) -> StageTask:
        """Remove and return the front task."""
        if not self._tasks:
            raise SchedulingError(f"pop from empty stage-{self.stage} queue")
        task = self._tasks.popleft()
        self.dispatched_total += 1
        self.length_monitor.set_level(now, len(self._tasks))
        return task


class QueueSet:
    """One queue per pipeline stage."""

    def __init__(self, n_stages: int, start_time: float = 0.0) -> None:
        if n_stages < 1:
            raise SchedulingError("need at least one stage")
        self.queues = tuple(
            StageQueue(i, start_time=start_time) for i in range(n_stages)
        )

    def __getitem__(self, stage: int) -> StageQueue:
        return self.queues[stage]

    def __len__(self) -> int:
        return len(self.queues)

    def __iter__(self) -> Iterator[StageQueue]:
        return iter(self.queues)

    def total_waiting(self) -> int:
        """Tasks waiting across all stages."""
        return sum(len(q) for q in self.queues)

    def lengths(self) -> tuple[int, ...]:
        """Per-stage queue lengths."""
        return tuple(len(q) for q in self.queues)
