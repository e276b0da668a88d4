"""Build-and-run one simulated SCAN deployment.

A session assembles the whole stack for one configuration through a
:class:`~repro.sim.builder.PlatformBuilder` -- simulated cloud, CELAR,
reward function, allocation + scaling policies, event bus, scheduler,
workload -- runs it for the configured duration and reports a
:class:`~repro.sim.metrics.SessionResult`.

Pass a subclassed builder (or ``observers``) to customise a single
assembly stage; the session itself only orchestrates runs and collects
results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.apps.base import ApplicationModel
from repro.apps.registry import ApplicationRegistry
from repro.core.bus import EventBus
from repro.core.config import PlatformConfig
from repro.desim.engine import Environment
from repro.desim.monitor import Monitor
from repro.desim.rng import RandomStreams
from repro.scheduler.scheduler import SCANScheduler
from repro.sim.builder import BuiltPlatform, Observer, PlatformBuilder
from repro.sim.metrics import SessionResult
from repro.workload.arrivals import ArrivalBatch
from repro.workload.jobs import JobFactory

if TYPE_CHECKING:  # imported only when telemetry is enabled at runtime
    from repro.telemetry.hub import TelemetryHub

__all__ = ["SimulationSession", "run_repetitions"]


class SimulationSession:
    """One configured deployment, runnable against a seed."""

    def __init__(
        self,
        config: PlatformConfig,
        registry: Optional[ApplicationRegistry] = None,
        on_build: Optional[Callable[["SimulationSession"], None]] = None,
        actual_app: Optional[ApplicationModel] = None,
        builder: Optional[PlatformBuilder] = None,
        observers: "Sequence[Observer]" = (),
    ) -> None:
        #: The assembly recipe.  A caller-supplied builder wins; otherwise
        #: the stock :class:`PlatformBuilder` wires the paper platform.
        self.builder = (
            builder
            if builder is not None
            else PlatformBuilder(
                config,
                registry=registry,
                actual_app=actual_app,
                observers=observers,
            )
        )
        self.config = self.builder.config
        self.registry = self.builder.registry
        self.on_build = on_build
        self.app: ApplicationModel = self.builder.app
        self.actual_app = self.builder.actual_app
        # Populated by run(): the live components of the most recent run.
        self.scheduler: Optional[SCANScheduler] = None
        self.bus: Optional[EventBus] = None
        #: Knowledge plane / refitter of the most recent run (refitter is
        #: None under the static provider -- no feedback loop exists).
        self.plane = None
        self.refitter = None
        self._factory: Optional[JobFactory] = None
        #: Telemetry hub of the most recent run; None while telemetry is
        #: disabled (the default) -- the subsystem is then never imported.
        self.telemetry: "Optional[TelemetryHub]" = None

    @property
    def _constant_plan(self):
        # The offline best-constant plan now lives with the assembly
        # recipe; kept addressable here for callers/tests that inspect it.
        return self.builder._constant_plan

    def _make_hub(self) -> "Optional[TelemetryHub]":
        if not self.config.telemetry.enabled:
            return None
        from repro.telemetry.hub import TelemetryHub

        return TelemetryHub.from_config(self.config.telemetry)

    # -- assembly ---------------------------------------------------------------
    def _build(
        self,
        env: Environment,
        streams: RandomStreams,
        hub: "Optional[TelemetryHub]" = None,
    ) -> BuiltPlatform:
        platform = self.builder.build(env, streams, hub)
        self.scheduler = platform.scheduler
        self.bus = platform.bus
        self.plane = platform.plane
        self.refitter = platform.refitter
        self._factory = platform.factory
        if self.on_build is not None:
            self.on_build(self)
        return platform

    # -- running -------------------------------------------------------------------
    def run(self, seed: Optional[int] = None) -> SessionResult:
        """Run one session with stochastic arrivals; returns its result."""
        cfg = self.config
        actual_seed = cfg.simulation.seed if seed is None else seed
        streams = RandomStreams(actual_seed)
        env = Environment()
        hub = self._make_hub()
        self.telemetry = hub
        if hub is not None:
            hub.bind(env)
        platform = self._build(env, streams, hub)
        scheduler = platform.scheduler
        arrivals = self.builder.build_arrivals(streams)

        on_batch = self._make_on_batch(self._factory, scheduler, hub)
        env.process(
            arrivals.run(env, on_batch, until=cfg.simulation.duration)
        )
        snapshot = self._arm_warmup(env, scheduler)
        self._run_engine(env, cfg.simulation.duration, hub)
        result = self._collect(scheduler, actual_seed, snapshot, hub)
        # Teardown: the finished platform holds no cycle and dies by
        # reference counting once the caller drops it.
        platform.close()
        return result

    def _make_on_batch(
        self,
        factory: JobFactory,
        scheduler: SCANScheduler,
        hub: "Optional[TelemetryHub]",
    ) -> Callable[[ArrivalBatch], None]:
        """The arrival callback: broker the batch into pipeline runs.

        This boundary is the session's Data Broker role (paper
        Section III-A.1: arriving datasets become subtask jobs before they
        reach the scheduler), so with tracing on it carries the "broker"
        category span.
        """
        tracer = hub.tracer if hub is not None else None
        if tracer is None:

            def on_batch(batch: ArrivalBatch) -> None:
                for job in factory.from_batch(batch):
                    scheduler.submit(job)

            return on_batch

        def traced_on_batch(batch: ArrivalBatch) -> None:
            with tracer.span(
                "broker.ingest_batch",
                "broker",
                args={"jobs": batch.n_jobs, "total_size": batch.total_size},
            ):
                for job in factory.from_batch(batch):
                    scheduler.submit(job)

        return traced_on_batch

    def _run_engine(
        self, env: Environment, duration: float, hub: "Optional[TelemetryHub]"
    ) -> None:
        """``env.run``, inside an ``engine.run`` span when tracing is on."""
        if hub is None or hub.tracer is None:
            env.run(until=duration)
            return
        hub.tracer.lane(0, "session control")
        with hub.tracer.span("engine.run", "engine", args={"until": duration}):
            env.run(until=duration)

    def _arm_warmup(self, env: Environment, scheduler: SCANScheduler):
        """Schedule a state snapshot at the warmup boundary.

        Steady-state metrics (``SimulationConfig.warmup > 0``) report the
        post-warmup *delta*: reward, cost and completions accumulated
        during the transient are excluded.
        """
        warmup = self.config.simulation.warmup
        if warmup <= 0:
            return None
        snapshot: dict = {}

        def take(_event) -> None:
            infra = scheduler.infrastructure
            base_tier = infra.base
            snapshot.update(
                reward=scheduler.total_reward,
                cost=scheduler.total_cost(),
                completed=len(scheduler.completed_jobs),
                submitted=len(scheduler.submitted_jobs),
                private_core_tu=base_tier.core_tu_consumed(),
                public_core_tu=sum(
                    t.core_tu_consumed()
                    for t in infra.tiers
                    if t is not base_tier
                ),
            )

        timer = env.timeout(warmup)
        timer.callbacks.append(take)
        return snapshot

    def _collect(
        self,
        scheduler: SCANScheduler,
        seed: int,
        snapshot: "dict | None" = None,
        hub: "Optional[TelemetryHub]" = None,
    ) -> SessionResult:
        infra = scheduler.infrastructure
        base_tier = infra.base
        overflow_tiers = [t for t in infra.tiers if t is not base_tier]
        pools = scheduler.pools
        duration = self.config.simulation.duration
        base = snapshot or {}
        reward0 = base.get("reward", 0.0)
        cost0 = base.get("cost", 0.0)
        completed0 = base.get("completed", 0)
        submitted0 = base.get("submitted", 0)
        warm_jobs = scheduler.completed_jobs[completed0:]
        latencies = Monitor("latency")
        for idx, job in enumerate(warm_jobs):
            # Index as the pseudo-time axis: completion order is already
            # monotone, and Monitor only needs non-decreasing stamps.
            latencies.observe(float(idx), job.latency())
        latency_summary = latencies.summary()
        if warm_jobs:
            mean_latency = latencies.mean()
            mean_core_stages = sum(j.core_stages() for j in warm_jobs) / len(
                warm_jobs
            )
        else:
            mean_latency = float("nan")
            mean_core_stages = 0.0
        if hub is not None:
            self._absorb_session_metrics(hub, scheduler, latencies)
        return SessionResult(
            seed=seed,
            duration=duration,
            submitted_runs=len(scheduler.submitted_jobs) - submitted0,
            completed_runs=len(scheduler.completed_jobs) - completed0,
            total_reward=scheduler.total_reward - reward0,
            total_cost=scheduler.total_cost() - cost0,
            mean_latency=mean_latency,
            mean_core_stages=mean_core_stages,
            # "private"/"public" report the base tier vs the sum of every
            # overflow tier -- identical to the historical pair on the
            # default two-tier stack, meaningful on N-tier stacks.
            private_core_tu=base_tier.core_tu_consumed()
            - base.get("private_core_tu", 0.0),
            public_core_tu=sum(
                t.core_tu_consumed() for t in overflow_tiers
            )
            - base.get("public_core_tu", 0.0),
            private_utilization=base_tier.utilization(),
            hires_private=pools.hires[base_tier.name],
            hires_public=sum(
                pools.hires[t.name] for t in overflow_tiers
            ),
            repools=pools.repools,
            reaped=pools.reaped,
            final_queue_depth=scheduler.queues.total_waiting(),
            worker_failures=pools.failed,
            task_retries=scheduler.task_retries,
            failed_runs=len(scheduler.failed_jobs),
            dead_lettered=len(scheduler.dead_letters),
            speculative_launched=scheduler.speculation.launched,
            speculative_won=scheduler.speculation.won,
            speculative_lost=scheduler.speculation.lost,
            deploy_failures=scheduler.deploy_failures,
            boot_failures=pools.boot_failures,
            breaker_opens=(
                scheduler.breaker.opened_count
                if scheduler.breaker is not None
                else 0
            ),
            stragglers=(
                scheduler.faults.stragglers_injected
                if scheduler.faults is not None
                else 0
            ),
            corruptions=(
                scheduler.faults.corruptions_injected
                if scheduler.faults is not None
                else 0
            ),
            latency_p50=latency_summary["p50"],
            latency_p95=latency_summary["p95"],
            latency_p99=latency_summary["p99"],
        )

    def _absorb_session_metrics(
        self,
        hub: "TelemetryHub",
        scheduler: SCANScheduler,
        latencies: Monitor,
    ) -> None:
        """Fold end-of-run series into the hub's metrics registry."""
        registry = hub.metrics
        if registry is None:
            return
        from repro.telemetry.metrics import absorb_monitor

        now = scheduler.env.now
        infra = scheduler.infrastructure
        absorb_monitor(
            registry,
            latencies,
            "session_latency_tu",
            "completed pipeline-run latency (TU)",
        )
        utilization = registry.gauge(
            "infra_utilization", "time-weighted tier utilisation",
            labelnames=("tier",),
        )
        utilization.set(infra.base.utilization(), tier=infra.base.name)
        core_tu = registry.gauge(
            "infra_core_tu", "core-TUs consumed per tier", labelnames=("tier",)
        )
        for t in infra.tiers:
            core_tu.set(t.core_tu_consumed(), tier=t.name)
        depth = registry.gauge(
            "scheduler_queue_depth",
            "stage queue depth (time-weighted statistics)",
            labelnames=("stage", "stat"),
        )
        for stage in range(scheduler.n_steps):
            monitor = scheduler.queues[stage].length_monitor
            depth.set(monitor.level, stage=str(stage), stat="level")
            depth.set(monitor.peak, stage=str(stage), stat="peak")
            depth.set(
                monitor.time_average(now), stage=str(stage), stat="time_average"
            )
        totals = registry.gauge(
            "session_totals", "headline session totals", labelnames=("metric",)
        )
        totals.set(scheduler.total_reward, metric="reward")
        totals.set(scheduler.total_cost(), metric="cost")
        totals.set(float(len(scheduler.completed_jobs)), metric="completed_runs")
        totals.set(float(len(scheduler.submitted_jobs)), metric="submitted_runs")


def run_repetitions(
    config: PlatformConfig,
    repetitions: Optional[int] = None,
    base_seed: Optional[int] = None,
    registry: Optional[ApplicationRegistry] = None,
    seeds: "Optional[Sequence[int]]" = None,
) -> list[SessionResult]:
    """Run the paper's repeated measurements (default: config's 10 reps).

    Repetition *k* uses seed ``base_seed + k``, so two configurations run
    with the same base seed see identical arrival processes per repetition
    (common random numbers).

    ``seeds``, if given, overrides the derived sequence entirely: one run
    per listed seed, in order.  The parallel sweep executor uses this to
    hand a worker an explicit slice of a cell's repetitions.
    """
    config.validate()
    if seeds is None:
        n = config.simulation.repetitions if repetitions is None else repetitions
        if n < 1:
            raise ValueError("repetitions must be >= 1")
        seed0 = config.simulation.seed if base_seed is None else base_seed
        seeds = [seed0 + k for k in range(n)]
    elif not seeds:
        raise ValueError("seeds must be non-empty when given")
    session = SimulationSession(config, registry=registry)
    return [session.run(seed=seed) for seed in seeds]
