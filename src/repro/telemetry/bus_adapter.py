"""Telemetry adapters over the simulation event bus.

This is where observation happens.  The scheduler, worker pools, CELAR
and the broker carry no telemetry code: the scheduler and pools publish
typed :class:`~repro.core.bus.EventBus` events, and these subscribers,
wired up at assembly time, turn them into the instruments -- scheduler
metrics, the scaling-decision audit log, and the trace's decision
instants, task spans, boot spans and cloud instants.  Subscribers are
passive -- they never draw RNG or schedule engine events -- so attaching
them leaves simulated results bit-identical (the telemetry determinism
contract, unchanged).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.bus import (
    BusEvent,
    DeployFailed,
    EventBus,
    JobCompleted,
    ScalingDecisionMade,
    TaskFinished,
    TaskStarted,
    WorkerBooted,
    WorkerHired,
    WorkerRepooled,
)
from repro.telemetry.audit import ScalingDecisionRecord, decision_label

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.telemetry.audit import DecisionAuditLog
    from repro.telemetry.hub import TelemetryHub
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.tracing import Span, SpanTracer

__all__ = [
    "attach_hub",
    "attach_metrics_adapter",
    "attach_audit_adapter",
    "attach_decision_trace_adapter",
    "attach_span_trace_adapter",
]

#: Task outcomes that end an execution by interrupting it.
_INTERRUPTED = frozenset({"vm_failure", "speculative_loss"})


def attach_hub(bus: EventBus, hub: "TelemetryHub") -> None:
    """Subscribe every instrument the hub carries to *bus*."""
    if hub.metrics is not None:
        attach_metrics_adapter(bus, hub.metrics)
    if hub.audit is not None:
        attach_audit_adapter(bus, hub.audit)
    if hub.tracer is not None:
        attach_decision_trace_adapter(bus, hub.tracer)
        attach_span_trace_adapter(bus, hub.tracer)


def attach_metrics_adapter(bus: EventBus, registry: "MetricsRegistry") -> None:
    """Scheduler metric instruments, fed from bus events.

    Creates the same instruments (names, labels, buckets) the scheduler
    used to own, so exposition output is unchanged.
    """
    decisions = registry.counter(
        "scheduler_scaling_decisions_total",
        "hire-or-wait outcomes from the horizontal-scaling policy",
        labelnames=("decision",),
    )
    hires = registry.counter(
        "scheduler_hires_total",
        "workers hired, by cloud tier",
        labelnames=("tier",),
    )
    tasks = registry.counter(
        "scheduler_task_outcomes_total",
        "stage-task executions by outcome",
        labelnames=("outcome",),
    )
    stage_wait = registry.histogram(
        "scheduler_stage_wait_tu",
        "queue wait of dispatched stage tasks (TU)",
        buckets=(0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0),
    )
    job_latency = registry.histogram(
        "scheduler_job_latency_tu",
        "end-to-end latency of completed pipeline runs (TU)",
    )

    bus.subscribe(
        ScalingDecisionMade,
        lambda e: decisions.inc(decision=decision_label(e.decision)),
    )
    bus.subscribe(WorkerHired, lambda e: hires.inc(tier=e.tier))
    bus.subscribe(TaskFinished, lambda e: tasks.inc(outcome=e.outcome))

    def on_started(event: TaskStarted) -> None:
        # Speculative duplicates would double-count the queue-wait signal.
        if not event.speculative:
            stage_wait.observe(event.wait)

    bus.subscribe(TaskStarted, on_started)
    bus.subscribe(JobCompleted, lambda e: job_latency.observe(e.latency))


def attach_audit_adapter(bus: EventBus, audit: "DecisionAuditLog") -> None:
    """Record every published hire-or-wait choice in the audit log."""

    def on_decision(event: ScalingDecisionMade) -> None:
        audit.add(
            ScalingDecisionRecord(
                time=event.time,
                stage=event.stage,
                task_uid=event.task_uid,
                job_uid=event.job_uid,
                decision=decision_label(event.decision),
                explanation=event.decision.explanation,
            )
        )

    bus.subscribe(ScalingDecisionMade, on_decision)


def attach_decision_trace_adapter(bus: EventBus, tracer: "SpanTracer") -> None:
    """Decision instants and job-completion instants on the trace."""
    from repro.telemetry.tracing import lane_for_stage

    def on_decision(event: ScalingDecisionMade) -> None:
        lane = tracer.lane(
            lane_for_stage(event.stage), f"stage {event.stage} queue"
        )
        label = decision_label(event.decision)
        args: dict = {"job": event.job, "decision": label}
        explanation = event.decision.explanation
        if explanation is not None and explanation.premium is not None:
            args["delay_cost"] = explanation.delay_cost
            args["premium"] = explanation.premium
            args["wait"] = explanation.wait
        tracer.instant(
            f"decision.{label}",
            "scheduler",
            lane=lane,
            args=args,
        )

    bus.subscribe(ScalingDecisionMade, on_decision)

    def on_completed(event: JobCompleted) -> None:
        tracer.instant(
            "job.completed",
            "scheduler",
            args={
                "job": event.job,
                "latency": event.latency,
                "reward": event.reward,
            },
        )

    bus.subscribe(JobCompleted, on_completed)


def _args(event: BusEvent, *drop: str) -> dict:
    """An event's fields as trace args, less its time stamp and *drop*."""
    return {
        k: v for k, v in vars(event).items() if k != "time" and k not in drop
    }


def attach_span_trace_adapter(bus: EventBus, tracer: "SpanTracer") -> None:
    """Task spans, boot spans and cloud instants on each worker's lane.

    A task span runs from :class:`TaskStarted` to the worker's next
    :class:`TaskFinished` and is flagged as an error when the execution
    was interrupted (VM failure, lost speculative race).  A ``vm.boot``
    span runs from :class:`WorkerHired` or :class:`WorkerRepooled` to
    :class:`WorkerBooted`; those two events and :class:`DeployFailed` also
    mark ``celar.*`` instants.  Spans still open when the run ends are
    never recorded.
    """
    from repro.telemetry.tracing import lane_for_worker

    tasks: dict[int, "Span"] = {}
    boots: dict[int, "Span"] = {}

    def on_hired(event: WorkerHired) -> None:
        tracer.instant("celar.deploy", "cloud", args=_args(event))
        lane = tracer.lane(
            lane_for_worker(event.worker),
            f"worker {event.worker} ({event.tier} x{event.cores})",
        )
        boots[event.worker] = tracer.open("vm.boot", "cloud", lane=lane)

    def on_repooled(event: WorkerRepooled) -> None:
        tracer.instant("celar.resize", "cloud", args=_args(event))
        boots[event.worker] = tracer.open(
            "vm.boot", "cloud", lane=lane_for_worker(event.worker)
        )

    def on_booted(event: WorkerBooted) -> None:
        span = boots.pop(event.worker)
        span.args = _args(event, "worker")  # the lane names the worker
        tracer.close(span)

    def on_started(event: TaskStarted) -> None:
        tasks[event.worker] = tracer.open(
            f"{event.job}/s{event.stage}",
            "task",
            lane=lane_for_worker(event.worker),
            args=_args(event, "worker"),
        )

    def on_finished(event: TaskFinished) -> None:
        tracer.close(
            tasks.pop(event.worker), error=event.outcome in _INTERRUPTED
        )

    bus.subscribe(WorkerHired, on_hired)
    bus.subscribe(WorkerRepooled, on_repooled)
    bus.subscribe(WorkerBooted, on_booted)
    bus.subscribe(TaskStarted, on_started)
    bus.subscribe(TaskFinished, on_finished)
    bus.subscribe(
        DeployFailed,
        lambda e: tracer.instant("celar.deploy_failed", "cloud", args=_args(e)),
    )
