"""Jobs (pipeline runs) and per-stage tasks.

A :class:`Job` is one user request: run a whole analysis over an input of
size ``d``.  "latency measures the time from a task entering the queue for
the first analysis stage to completing the last stage"; "the task's size
... generally reflects the number of records of input data supplied"
(paper Section III-A.2).  We use the job size (GB-units) as the record
count, as the paper's own model does (E_i is linear in d).

Since the DAG refactor a job's unit of work is a
:class:`~repro.workflows.compiled.CompiledWorkflow` node, not a pipeline
stage index.  A chain job (built with no workflow, or with a chain one)
tracks progress by ``current_stage`` alone -- node ``i`` is stage ``i``
-- while a DAG job tracks completion as a *set* of finished nodes plus
dependency release: a node becomes ready only when every parent node has
completed, and independent branches are handed to the scheduler together.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.apps.base import ApplicationModel, ExecutionPlan
from repro.core.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.workflows.compiled import CompiledWorkflow

__all__ = ["JobState", "StageRecord", "Job", "StageTask"]

_job_ids = itertools.count(1)
_task_ids = itertools.count(1)


class JobState(str, enum.Enum):
    """Job lifecycle states."""
    SUBMITTED = "submitted"
    RUNNING = "running"
    COMPLETED = "completed"
    #: A stage task exhausted its retry budget and was dead-lettered; the
    #: job's reward is forfeited.
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class StageRecord:
    """What happened when one step (workflow node) of a job ran."""

    stage: int
    queued_at: float
    started_at: float
    finished_at: float
    threads: int
    tier: str
    #: Executions this stage consumed (1 = first try succeeded).
    attempts: int = 1

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class Job:
    """One run through every node of a workflow (or every app stage)."""

    def __init__(
        self,
        app: ApplicationModel,
        size: float,
        submit_time: float,
        name: str = "",
        input_gb: Optional[float] = None,
        workflow: "Optional[CompiledWorkflow]" = None,
    ) -> None:
        if size <= 0:
            raise SchedulingError(f"job size must be positive, got {size}")
        if input_gb is not None and input_gb <= 0:
            raise SchedulingError(f"input_gb must be positive, got {input_gb}")
        self.uid = next(_job_ids)
        self.name = name or f"job{self.uid}"
        self.app = app
        #: Job size d in the paper's arbitrary units; the record count for
        #: rewards.
        self.size = float(size)
        #: Input size on the E_i(d) axis (GB); defaults to ``size`` under
        #: the 1-unit-=-1-GB mapping.  DAG nodes see this scaled by their
        #: workflow input scale.
        self.input_gb = float(input_gb) if input_gb is not None else float(size)
        self.submit_time = float(submit_time)
        self.state = JobState.SUBMITTED
        #: Thread counts per workflow node; set by the allocation policy.
        #: May be revised for *future* nodes by adaptive policies.
        self.plan: Optional[ExecutionPlan] = None
        #: Number of completed step executions (for a chain: the index of
        #: the next stage, exactly the legacy meaning).
        self.current_stage = 0
        self.history: list[StageRecord] = []
        self.completed_at: Optional[float] = None
        self.failed_at: Optional[float] = None
        self.reward_paid: Optional[float] = None
        #: The compiled workflow this job runs; ``None`` means "the app's
        #: own chain", lowered lazily on first access.
        self._workflow = workflow
        #: DAG jobs only: completed node indices, and nodes already handed
        #: to a queue.  A chain job's done nodes are ``range(current_stage)``,
        #: so it keeps ``None`` here.  Decided once, here: the lazy
        #: :attr:`workflow` cannot switch a running job's bookkeeping.
        dag = workflow is not None and not workflow.is_chain
        self._done: Optional[set[int]] = set() if dag else None
        self._released: Optional[set[int]] = set() if dag else None
        #: ``(estimator, plan, generation, row)``: the chain ETT's
        #: per-stage EET row and what it is valid for; owned by
        #: :class:`~repro.scheduler.estimator.PipelineEstimator`.
        self._eet_row: Optional[tuple] = None

    @property
    def records(self) -> float:
        """recs_j in the paper's equations."""
        return self.size

    @property
    def workflow(self) -> "CompiledWorkflow":
        """The compiled workflow (the app's chain when none was given)."""
        wf = self._workflow
        if wf is None:
            from repro.workflows.compiled import chain_of

            wf = self._workflow = chain_of(self.app)
        return wf

    @property
    def n_stages(self) -> int:
        """Total schedulable steps (chain jobs: the app's stage count)."""
        wf = self._workflow
        return wf.n_nodes if wf is not None else self.app.n_stages

    @property
    def completed_steps(self) -> frozenset:
        """Indices of completed workflow nodes."""
        if self._done is None:
            return frozenset(range(self.current_stage))
        return frozenset(self._done)

    @property
    def is_complete(self) -> bool:
        return self.state is JobState.COMPLETED

    @property
    def is_failed(self) -> bool:
        return self.state is JobState.FAILED

    def elapsed(self, now: float) -> float:
        """Time since the job entered the first queue (elapsed_j in Eq. 2)."""
        return now - self.submit_time

    def latency(self) -> float:
        """Total pipeline latency; only valid once complete."""
        if self.completed_at is None:
            raise SchedulingError(f"{self.name} has not completed")
        return self.completed_at - self.submit_time

    def planned_threads(self, stage: int) -> int:
        """The planned thread count for node *stage* (1 when unplanned)."""
        if self.plan is None or stage >= len(self.plan.threads):
            return 1
        return self.plan.threads[stage]

    def step_done(self, stage: int) -> bool:
        """Whether node *stage* has a completion record."""
        if self._done is None:
            return stage < self.current_stage
        return stage in self._done

    def start_steps(self) -> tuple[int, ...]:
        """Entry nodes to enqueue at submit time (marks them released).

        Chain jobs start at node 0, exactly as before; DAG jobs fan every
        parentless node out at once.
        """
        if self._released is None:
            return (0,)
        entries = self._workflow.entries
        self._released.update(entries)
        return entries

    def ready_after(self, stage: int) -> list[int]:
        """Nodes newly runnable after *stage* completed (marks released).

        A child is released exactly once, when its *last* outstanding
        parent finishes -- the DAG fan-in barrier.  For chains this is
        ``[stage + 1]`` (or nothing at the end), matching the legacy
        next-stage enqueue.
        """
        if self._released is None:
            nxt = stage + 1
            return [nxt] if nxt < self.n_stages else []
        wf = self._workflow
        ready = []
        for child in wf.node(stage).children:
            if child in self._released:
                continue
            if all(p in self._done for p in wf.node(child).parents):
                self._released.add(child)
                ready.append(child)
        return ready

    def record_stage(self, record: StageRecord) -> None:
        """Append a step completion record.

        Chain jobs must complete nodes in index order (the legacy
        contract); DAG jobs may complete released branches in any order,
        but never a node twice or before its parents.
        """
        done = self._done
        if done is None:
            if record.stage != self.current_stage:
                raise SchedulingError(
                    f"{self.name}: stage {record.stage} completed out of order "
                    f"(expected {self.current_stage})"
                )
        else:
            if record.stage in done:
                raise SchedulingError(
                    f"{self.name}: step {record.stage} completed twice"
                )
            node = self._workflow.node(record.stage)
            missing = [p for p in node.parents if p not in done]
            if missing:
                raise SchedulingError(
                    f"{self.name}: step {record.stage} completed before "
                    f"parent step(s) {missing}"
                )
            done.add(record.stage)
        self.history.append(record)
        self.current_stage += 1

    def complete(self, now: float, reward: float) -> None:
        """Mark the job finished and store its paid reward."""
        if self.current_stage != self.n_stages:
            raise SchedulingError(
                f"{self.name}: completing with {self.current_stage}/"
                f"{self.n_stages} stages done"
            )
        self.state = JobState.COMPLETED
        self.completed_at = now
        self.reward_paid = reward

    def fail(self, now: float) -> None:
        """Mark the job dead-lettered: no further stages run, no reward."""
        if self.state is JobState.COMPLETED:
            raise SchedulingError(f"{self.name} already completed; cannot fail")
        self.state = JobState.FAILED
        self.failed_at = now

    def core_stages(self) -> int:
        """Total cores across executed stages (Figure 5's x-axis)."""
        return sum(r.threads for r in self.history)

    def __repr__(self) -> str:
        return (
            f"<Job {self.name} d={self.size:.2f} stage={self.current_stage}"
            f"/{self.n_stages} {self.state.value}>"
        )


@dataclass(slots=True)
class StageTask:
    """One workflow node of one job, waiting in (or leaving) its queue."""

    job: Job
    stage: int
    enqueued_at: float
    uid: int = field(default_factory=lambda: next(_task_ids))
    #: Thread count, fixed when the task starts executing.
    threads: Optional[int] = None
    #: When the current ``threads`` decision was made (scheduler memo; a
    #: stale decision is re-taken after DECISION_TTL).
    decided_at: float = float("-inf")
    #: Which execution this is (1 = first try); retries carry it forward
    #: so retry budgets and queue-wait metrics stay honest.
    attempt: int = 1
    #: When the FIRST attempt entered the queue; ``enqueued_at`` is reset
    #: per retry, this is not.
    first_enqueued_at: Optional[float] = None
    #: A speculative duplicate launched by the straggler watchdog.
    speculative: bool = False
    #: Set when a twin already resolved this stage; dispatch drops the
    #: task instead of running it.
    cancelled: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.stage < self.job.n_stages:
            raise SchedulingError(
                f"stage {self.stage} out of range for {self.job.name}"
            )
        if self.attempt < 1:
            raise SchedulingError(f"attempt must be >= 1, got {self.attempt}")
        if self.first_enqueued_at is None:
            self.first_enqueued_at = self.enqueued_at

    @property
    def size(self) -> float:
        return self.job.size

    def execution_time(self, threads: int) -> float:
        """Model-predicted runtime of this task at *threads* threads."""
        job = self.job
        wf = job._workflow
        if wf is None:
            return job.app.stage(self.stage).threaded_time(
                threads, job.input_gb
            )
        node = wf.node(self.stage)
        return node.model.threaded_time(
            threads, wf.node_input_gb(self.stage, job.input_gb)
        )

    def __repr__(self) -> str:
        return f"<StageTask {self.job.name}/s{self.stage}>"
