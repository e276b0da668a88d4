"""Typed simulation event bus: deterministic synchronous pub/sub.

Cross-cutting observers (telemetry adapters, fault bookkeeping, live
monitors, dead-letter accounting) used to be threaded through constructor
chains as bespoke hooks.  They are now subscribers on an :class:`EventBus`
carrying the dataclass events below; the scheduler and pools *publish*,
and whoever cares *subscribes* -- assembly code decides the wiring.

Determinism contract:

- delivery is synchronous and in subscription order -- no queues, no
  threads, no reordering, so a run's observable behaviour is a pure
  function of its seed regardless of how many observers are attached;
- subscribers must be passive with respect to the simulation: they may
  record, count and export, but never draw from the simulation's RNG
  streams or schedule engine events (the telemetry rules, generalised);
- the no-subscriber fast path is hard: ``publish`` on an event type with
  no handlers is a dict probe and an early return, and publishers guard
  event *construction* behind ``type in bus`` so a run with no observers
  allocates nothing.  Disabled runs are therefore bit-identical to builds
  without the bus at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Type

__all__ = [
    "BusEvent",
    "TaskQueued",
    "TaskStarted",
    "TaskFinished",
    "StageCompleted",
    "TaskRetryScheduled",
    "TaskDeadLettered",
    "JobCompleted",
    "JobFailed",
    "ServiceJobAccepted",
    "ServiceJobRejected",
    "ServiceJobPopped",
    "ServiceJobFinished",
    "WorkerHired",
    "WorkerRepooled",
    "WorkerBooted",
    "WorkerFailed",
    "WorkerEvicted",
    "DeployFailed",
    "PlacementRejected",
    "ScalingDecisionMade",
    "FaultInjected",
    "EventBus",
    "EventCounter",
    "EventRecorder",
]


@dataclass(frozen=True)
class BusEvent:
    """Base class: every bus event is stamped with simulation time."""

    time: float


# -- task lifecycle ---------------------------------------------------------
@dataclass(frozen=True)
class TaskQueued(BusEvent):
    """A stage task entered its queue (first attempt or retry)."""

    job: str
    stage: int
    attempt: int
    speculative: bool


@dataclass(frozen=True)
class TaskStarted(BusEvent):
    """A stage task began executing on a worker."""

    job: str
    stage: int
    threads: int
    worker: int
    tier: str
    wait: float
    attempt: int
    speculative: bool
    straggled: bool


@dataclass(frozen=True)
class TaskFinished(BusEvent):
    """An execution attempt ended; ``outcome`` says how.

    Outcomes: ``completed``, ``vm_failure``, ``corrupted``,
    ``speculative_loss``.
    """

    job: str
    stage: int
    outcome: str
    worker: int
    tier: str


@dataclass(frozen=True)
class StageCompleted(BusEvent):
    """A stage execution attempt completed successfully.

    This is the knowledge plane's feedback signal: it carries the realised
    duration alongside the stage-model axes (input GB, threads), so online
    refitters and learning policies can fold the observation back into
    their models.  ``input_gb`` is the job's stage-model input size (the
    x-axis of the Eq. 2 linear fits), not the reward-unit job size.
    """

    job: str
    app: str
    stage: int
    input_gb: float
    threads: int
    duration: float
    #: The job object itself (learning subscribers read per-job state).
    job_obj: Any = field(compare=False, default=None)
    #: Tier the attempt ran on ("" when the publisher predates tiers);
    #: lets per-tier learners scope their coefficient fits.
    tier: str = ""


@dataclass(frozen=True)
class TaskRetryScheduled(BusEvent):
    """A failed attempt will re-enter its queue after backoff."""

    job: str
    stage: int
    attempt: int
    delay: float
    reason: str


@dataclass(frozen=True)
class TaskDeadLettered(BusEvent):
    """A task exhausted its retry budget; carries the task for quarantine."""

    job: str
    stage: int
    attempts: int
    reason: str
    #: The quarantined task object itself (dead-letter subscribers keep it).
    task: Any = field(compare=False)


# -- job lifecycle ----------------------------------------------------------
@dataclass(frozen=True)
class JobCompleted(BusEvent):
    """A pipeline run finished all stages and was paid its reward."""

    job: str
    latency: float
    reward: float
    size: float


@dataclass(frozen=True)
class JobFailed(BusEvent):
    """A pipeline run was abandoned (dead-lettered stage)."""

    job: str
    stage: int
    reason: str


# -- service plane (multi-tenant front door) --------------------------------
@dataclass(frozen=True)
class ServiceJobAccepted(BusEvent):
    """Admission control accepted a tenant's job into its queue."""

    tenant: str
    uid: str
    size_gb: float
    depth: int


@dataclass(frozen=True)
class ServiceJobRejected(BusEvent):
    """Admission control bounced (or shed) a tenant's job.

    Reasons: ``queue_full``, ``shed``, ``duplicate``, ``tenant_suspended``.
    """

    tenant: str
    uid: str
    reason: str


@dataclass(frozen=True)
class ServiceJobPopped(BusEvent):
    """A worker/pump leased the best-priority job off a tenant's queue."""

    tenant: str
    uid: str
    wait_s: float


@dataclass(frozen=True)
class ServiceJobFinished(BusEvent):
    """A leased job resolved (``completed`` / ``failed`` / ``requeued``)."""

    tenant: str
    uid: str
    outcome: str


# -- worker / cloud state ---------------------------------------------------
@dataclass(frozen=True)
class WorkerHired(BusEvent):
    """A fresh worker was deployed for a stage (its boot has begun)."""

    worker: int
    tier: str
    cores: int
    stage: int


@dataclass(frozen=True)
class WorkerRepooled(BusEvent):
    """An idle worker was resized to serve a different shape."""

    worker: int
    cores: int
    stage: int


@dataclass(frozen=True)
class WorkerBooted(BusEvent):
    """A hired or re-pooled worker's boot ended.

    Published on every exit of the boot, including a boot failure and a
    VM that died while booting; the worker joins the idle pool only if
    it is still alive.
    """

    worker: int
    tier: str
    cores: int
    stage: int


@dataclass(frozen=True)
class WorkerFailed(BusEvent):
    """A busy worker's VM died under its task."""

    worker: int
    tier: str
    cores: int


@dataclass(frozen=True)
class WorkerEvicted(BusEvent):
    """A spot-tier worker was reclaimed by the provider mid-lease.

    Distinct from :class:`WorkerFailed` (a crash): evictions are a
    price-correlated fault stream, and observers tracking spot viability
    need to tell reclaim pressure apart from hardware failure.  The
    victim's task flows through the same retry/dead-letter machinery.
    """

    worker: int
    tier: str
    cores: int


@dataclass(frozen=True)
class DeployFailed(BusEvent):
    """A CELAR deploy request bounced transiently."""

    tier: str
    cores: int
    stage: int
    breaker_opened: bool


@dataclass(frozen=True)
class PlacementRejected(BusEvent):
    """A tier refused an allocation request.

    ``reason`` is ``capacity`` (not enough free cores) or a backend cap
    (``max_cores_per_allocation`` / ``max_duration_tu`` for serverless).
    """

    tier: str
    cores: int
    reason: str


# -- decisions and faults ---------------------------------------------------
@dataclass(frozen=True)
class ScalingDecisionMade(BusEvent):
    """One hire-or-wait choice.

    ``decision`` is the :class:`~repro.scheduler.scaling.ScalingDecision`
    itself (carrying its Eq. 1 explanation when one was captured);
    subscribers derive labels/records from it.
    """

    stage: int
    task_uid: int
    job_uid: int
    job: str
    decision: Any = field(compare=False)


@dataclass(frozen=True)
class FaultInjected(BusEvent):
    """The chaos layer perturbed an execution (straggler, corruption)."""

    kind: str
    job: str
    stage: int
    detail: float = 0.0


Handler = Callable[[Any], None]


class EventBus:
    """Synchronous, deterministic pub/sub over the dataclasses above.

    Handlers subscribe per event *type* (exact type, no subclass
    dispatch -- publishing is a single dict probe).  Publication order is
    event order; delivery order is subscription order.
    """

    __slots__ = ("_handlers",)

    def __init__(self) -> None:
        self._handlers: Dict[Type[Any], List[Handler]] = {}

    def subscribe(self, event_type: Type[Any], handler: Handler) -> Handler:
        """Invoke *handler* for every future event of exactly *event_type*."""
        self._handlers.setdefault(event_type, []).append(handler)
        return handler

    def publish(self, event: Any) -> None:
        """Deliver *event* to its subscribers (no-op without any)."""
        handlers = self._handlers.get(type(event))
        if not handlers:
            return
        for handler in handlers:
            handler(event)

    def __contains__(self, event_type: Type[Any]) -> bool:
        # The publisher-side guard: `if TaskStarted in bus:` skips event
        # construction entirely on the no-subscriber path.
        return event_type in self._handlers

    @property
    def active(self) -> bool:
        """Whether any subscription exists at all."""
        return bool(self._handlers)


# -- generic subscribers ----------------------------------------------------
class EventCounter:
    """Counts events by type name -- the simplest possible observer."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def attach(
        self, bus: EventBus, event_types: Optional[list[type]] = None
    ) -> "EventCounter":
        """Subscribe to *event_types* (default: every event type here)."""
        if event_types is None:
            event_types = _ALL_EVENT_TYPES
        for event_type in event_types:
            bus.subscribe(event_type, self._observe)
        return self

    def _observe(self, event: Any) -> None:
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1


class EventRecorder:
    """Retains every received event in publication order (tests, replay)."""

    def __init__(self) -> None:
        self.events: List[Any] = []

    def attach(
        self, bus: EventBus, event_types: Optional[list[type]] = None
    ) -> "EventRecorder":
        """Subscribe to *event_types* (default: every event type here)."""
        if event_types is None:
            event_types = _ALL_EVENT_TYPES
        for event_type in event_types:
            bus.subscribe(event_type, self.events.append)
        return self

    def of_type(self, event_type: type) -> List[Any]:
        """Recorded events of exactly *event_type*, in order."""
        return [e for e in self.events if type(e) is event_type]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.events)


_ALL_EVENT_TYPES: List[type] = [
    TaskQueued,
    TaskStarted,
    TaskFinished,
    StageCompleted,
    TaskRetryScheduled,
    TaskDeadLettered,
    JobCompleted,
    JobFailed,
    ServiceJobAccepted,
    ServiceJobRejected,
    ServiceJobPopped,
    ServiceJobFinished,
    WorkerHired,
    WorkerRepooled,
    WorkerBooted,
    WorkerFailed,
    WorkerEvicted,
    DeployFailed,
    PlacementRejected,
    ScalingDecisionMade,
    FaultInjected,
]
