"""Scheduler resilience mechanisms: what survives the chaos layer.

Four cooperating pieces, all driven by :class:`SCANScheduler`:

- :class:`RetryPolicy` -- per-task attempt budgets with capped exponential
  backoff before re-enqueue (replacing the seed's instant, unbounded
  re-queue on worker death).
- :class:`DeadLetterQueue` -- quarantine for tasks that exhausted their
  budget; their job transitions to ``JobState.FAILED`` and forfeits its
  reward, so one poison task cannot starve the platform.
- :class:`SpeculativeExecutor` -- a straggler watchdog: a running task
  that exceeds ``straggler_factor x`` the estimator's predicted duration
  gets ONE speculative duplicate; the first finisher wins, the loser is
  interrupted and its worker released.
- :class:`CircuitBreaker` -- repeated public-tier deploy failures open the
  breaker; the scaling policy then treats the public tier as unavailable
  until a half-open probe succeeds.

With no faults injected every mechanism is inert, so a fault-free session
is bit-identical to the seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.core.config import ResilienceConfig
from repro.core.errors import SchedulingError
from repro.scheduler.tasks import StageTask

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.desim.engine import Environment, Event
    from repro.scheduler.workers import Worker

__all__ = [
    "RetryPolicy",
    "DeadLetter",
    "DeadLetterQueue",
    "BreakerState",
    "CircuitBreaker",
    "ExecutionAttempt",
    "ExecutionGroup",
    "SpeculativeExecutor",
]


# -- retry budgets ------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + capped exponential backoff schedule."""

    #: Executions a task may consume; 0 = unbounded (legacy behaviour).
    max_attempts: int = 0
    base_delay_tu: float = 0.25
    backoff_factor: float = 2.0
    max_delay_tu: float = 8.0

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise SchedulingError("max_attempts must be >= 0")
        if self.base_delay_tu < 0 or self.max_delay_tu < 0:
            raise SchedulingError("retry delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise SchedulingError("backoff_factor must be >= 1")

    @staticmethod
    def from_config(cfg: ResilienceConfig) -> "RetryPolicy":
        if not cfg.enabled:
            # No resilience: the first failed execution is final (chaos
            # with no safety net -- the ablation baseline).
            return RetryPolicy(max_attempts=1, base_delay_tu=0.0)
        return RetryPolicy(
            max_attempts=cfg.max_attempts,
            base_delay_tu=cfg.retry_base_delay_tu,
            backoff_factor=cfg.retry_backoff_factor,
            max_delay_tu=cfg.retry_max_delay_tu,
        )

    def exhausted(self, attempts_used: int) -> bool:
        """Whether *attempts_used* executions consumed the whole budget."""
        return self.max_attempts > 0 and attempts_used >= self.max_attempts

    def delay_for(self, attempts_used: int) -> float:
        """Backoff before attempt ``attempts_used + 1`` (TU)."""
        if attempts_used < 1:
            raise SchedulingError("delay_for needs at least one used attempt")
        if self.base_delay_tu <= 0:
            return 0.0
        delay = self.base_delay_tu * self.backoff_factor ** (attempts_used - 1)
        return min(delay, self.max_delay_tu)


# -- dead letters -------------------------------------------------------------
@dataclass(frozen=True)
class DeadLetter:
    """One quarantined item with its post-mortem.

    ``task`` is a :class:`StageTask` when the scheduler dead-letters a
    stage execution; the service plane quarantines whole tenant jobs
    through the same queue, so the payload is duck-typed (anything with
    an optional ``stage`` attribute groups under :meth:`by_stage`).
    """

    task: Any
    reason: str
    time: float


class DeadLetterQueue:
    """Quarantine for work that exhausted its retry budget."""

    def __init__(self) -> None:
        self._entries: list[DeadLetter] = []

    def push(self, task: Any, reason: str, now: float) -> DeadLetter:
        entry = DeadLetter(task=task, reason=reason, time=now)
        self._entries.append(entry)
        return entry

    def on_dead_lettered(self, event: Any) -> None:
        """Bus subscriber for :class:`~repro.core.bus.TaskDeadLettered`."""
        self.push(event.task, event.reason, event.time)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(self._entries)

    def by_stage(self) -> dict[int, int]:
        """Dead-letter counts per pipeline stage (service jobs: stage -1)."""
        out: dict[int, int] = {}
        for entry in self._entries:
            stage = getattr(entry.task, "stage", -1)
            out[stage] = out.get(stage, 0) + 1
        return out


# -- circuit breaker ----------------------------------------------------------
class BreakerState(str, enum.Enum):
    """Classic three-state breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Trips after consecutive failures; half-open probe after a cooldown.

    Deploys resolve synchronously in the simulation, so the half-open
    state needs no in-flight tracking: once the cooldown elapses the next
    attempt IS the probe -- success closes the breaker, failure re-opens
    it for another cooldown.
    """

    def __init__(self, threshold: int = 3, cooldown_tu: float = 20.0) -> None:
        if threshold < 1:
            raise SchedulingError("breaker threshold must be >= 1")
        if cooldown_tu <= 0:
            raise SchedulingError("breaker cooldown must be positive")
        self.threshold = threshold
        self.cooldown_tu = cooldown_tu
        self._consecutive_failures = 0
        self._open_until: Optional[float] = None
        self.opened_count = 0

    def state(self, now: float) -> BreakerState:
        if self._open_until is None:
            return BreakerState.CLOSED
        if now < self._open_until:
            return BreakerState.OPEN
        return BreakerState.HALF_OPEN

    def allow(self, now: float) -> bool:
        """Whether a request may go through right now."""
        return self.state(now) is not BreakerState.OPEN

    def record_failure(self, now: float) -> bool:
        """Note a failed request; returns True when the breaker (re)opens."""
        state = self.state(now)
        self._consecutive_failures += 1
        if state is BreakerState.HALF_OPEN:
            # The probe failed: straight back to OPEN.
            self._open_until = now + self.cooldown_tu
            self.opened_count += 1
            return True
        if (
            state is BreakerState.CLOSED
            and self._consecutive_failures >= self.threshold
        ):
            self._open_until = now + self.cooldown_tu
            self.opened_count += 1
            return True
        return False

    def record_success(self, now: float) -> bool:
        """Note a successful request; returns True when the breaker closes."""
        was_tripped = self._open_until is not None
        self._consecutive_failures = 0
        self._open_until = None
        return was_tripped


# -- speculative re-execution -------------------------------------------------
class ExecutionAttempt:
    """One execution of a stage task on a worker, from dispatch to its end.

    The scheduler drives it with calendar callbacks (start, finish,
    interrupt) that receive it as their event's value, so it needs no
    process and holds no reference to the scheduler.  ``running`` is True
    from dispatch until its finish or interrupt has been handled, or until
    it is dropped unstarted.
    """

    __slots__ = (
        "task", "worker", "group", "started_at", "threads", "duration",
        "stage_input", "running",
    )

    def __init__(self, task: StageTask, worker: "Worker") -> None:
        self.task = task
        self.worker = worker
        #: The speculation group it belongs to while it runs; None when no
        #: twin can exist, for a stale twin, and once it has ended.
        self.group: Optional[ExecutionGroup] = None
        self.started_at = 0.0
        self.threads = 0
        self.duration = 0.0
        self.stage_input = 0.0
        self.running = True


@dataclass
class ExecutionGroup:
    """All attempts (primary + at most one speculative) of one stage."""

    key: tuple[int, int]
    primary: Optional[ExecutionAttempt] = None
    speculative: Optional[ExecutionAttempt] = None
    #: A speculative task launched but not yet dispatched to a worker.
    pending_speculative: Optional[StageTask] = None
    resolved: bool = False

    def attempt_for(self, task: StageTask) -> Optional[ExecutionAttempt]:
        if self.primary is not None and self.primary.task is task:
            return self.primary
        if self.speculative is not None and self.speculative.task is task:
            return self.speculative
        return None

    def twin_of(self, task: StageTask) -> Optional[ExecutionAttempt]:
        """The other live attempt, if any."""
        if self.primary is not None and self.primary.task is not task:
            return self.primary
        if self.speculative is not None and self.speculative.task is not task:
            return self.speculative
        return None


class SpeculativeExecutor:
    """Straggler watchdog + first-finisher-wins twin bookkeeping.

    The scheduler registers every execution here while a twin can
    launch at all (speculation on and stragglers injected; otherwise it
    skips the executor).  When a watched task runs
    past ``straggler_factor x`` its predicted duration, the executor asks
    the scheduler (via ``on_launch``) to enqueue exactly one speculative
    duplicate.  Whichever attempt finishes first resolves the group; the
    loser is cancelled.
    """

    def __init__(
        self,
        enabled: bool = True,
        straggler_factor: float = 3.0,
        on_launch: Optional[Callable[[StageTask], None]] = None,
    ) -> None:
        if straggler_factor <= 1.0:
            raise SchedulingError("straggler_factor must exceed 1")
        self.enabled = enabled
        self.straggler_factor = straggler_factor
        #: Invoked with the fresh speculative task; the scheduler enqueues
        #: it through its normal dispatch machinery.
        self.on_launch = on_launch
        self._groups: dict[tuple[int, int], ExecutionGroup] = {}
        self.launched = 0
        self.won = 0
        self.lost = 0

    @staticmethod
    def key_for(task: StageTask) -> tuple[int, int]:
        return (task.job.uid, task.stage)

    def register(self, attempt: ExecutionAttempt) -> Optional[ExecutionGroup]:
        """Track a starting execution and set its ``group``.

        Returns the group, or None for a stale speculative attempt: one
        whose group already resolved (or vanished) must not run -- the
        caller releases its worker unstarted.
        """
        task = attempt.task
        key = self.key_for(task)
        if task.speculative:
            group = self._groups.get(key)
            if group is None or group.resolved:
                return None
            group.speculative = attempt
            if group.pending_speculative is task:
                group.pending_speculative = None
        else:
            group = ExecutionGroup(key=key, primary=attempt)
            self._groups[key] = group
        attempt.group = group
        return group

    def watch(
        self, env: "Environment", group: ExecutionGroup, predicted_duration: float
    ) -> None:
        """Arm the straggler watchdog for a starting primary.

        It is armed one URGENT hop from now and fires once, at the
        straggler deadline, launching one speculative duplicate if the
        primary still lags.  A primary that already finished (or died, or
        spawned a twin some other way) makes it a no-op.
        """
        env.defer(self._arm, (group, predicted_duration))

    def _arm(self, event: "Event") -> None:
        group, predicted_duration = event.value
        deadline = self.straggler_factor * predicted_duration
        if deadline > 0:
            event.env.timeout(deadline, group).callbacks.append(self._deadline)

    def _deadline(self, event: "Event") -> None:
        group = event.value
        if not self.enabled or group.resolved:
            return
        if group.speculative is not None or group.pending_speculative is not None:
            return
        primary = group.primary
        if primary is None or not primary.running:
            return
        task = primary.task
        if task.job.is_failed:
            return
        duplicate = StageTask(
            job=task.job,
            stage=task.stage,
            enqueued_at=event.env.now,
            attempt=task.attempt,
            first_enqueued_at=task.first_enqueued_at,
            speculative=True,
        )
        group.pending_speculative = duplicate
        self.launched += 1
        if self.on_launch is not None:
            self.on_launch(duplicate)

    def resolve(
        self, group: ExecutionGroup, winner: StageTask
    ) -> Optional[ExecutionAttempt]:
        """First finisher wins: mark resolved, cancel the twin.

        Returns the losing *running* attempt (for the scheduler to
        interrupt), if there is one.  A twin still waiting in a queue is
        cancelled in place and dropped at dispatch.
        """
        group.resolved = True
        self._groups.pop(group.key, None)
        if winner.speculative:
            self.won += 1
        if group.pending_speculative is not None:
            # A twin that never started lost no race: ``lost`` counts only
            # executions the scheduler stops (``speculative_loss``).
            group.pending_speculative.cancelled = True
            group.pending_speculative = None
        loser = group.twin_of(winner)
        if loser is not None and loser.running:
            return loser
        return None

    def twin_survives(self, group: ExecutionGroup, task: StageTask) -> bool:
        """Detach a failed attempt; True when a twin carries on.

        Called when *task*'s execution failed (VM death, corruption).  If
        the other attempt is still running -- or still queued -- the stage
        does not need a retry; the twin is promoted to sole owner.
        """
        attempt = group.attempt_for(task)
        if attempt is not None:
            if group.primary is attempt:
                group.primary = None
            else:
                group.speculative = None
        twin = group.primary or group.speculative
        if twin is not None and twin.running:
            return True
        return group.pending_speculative is not None

    def discard(self, task: StageTask) -> None:
        """Forget a group whose every attempt failed (before retry/DLQ)."""
        self._groups.pop(self.key_for(task), None)

    def in_flight(self) -> int:
        """Unresolved execution groups (for diagnostics)."""
        return len(self._groups)
