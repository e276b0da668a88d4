"""Declarative assembly: builder stages, observers, and bus integration."""

from repro.core.bus import (
    EventRecorder,
    JobCompleted,
    ScalingDecisionMade,
    TaskFinished,
    TaskStarted,
    WorkerHired,
)
from repro.apps.base import ExecutionPlan
from repro.core.config import AllocationAlgorithm, PlatformConfig
from repro.scheduler.scaling import AlwaysScale
from repro.sim.builder import FixedPlanBuilder, PlatformBuilder
from repro.sim.observers import LatencyMonitorObserver
from repro.sim.session import SimulationSession


def short_config(**overrides):
    cfg = PlatformConfig.paper_defaults().with_overrides(
        simulation={"duration": 120.0, "repetitions": 2}
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def chaos_config():
    return short_config(
        faults={
            "mtbf_tu": 30.0,
            "p_boot_fail": 0.05,
            "p_straggler": 0.15,
            "p_corrupt": 0.05,
        },
        resilience={"max_attempts": 2},
    )


class TestPlatformBuilder:
    def test_build_populates_every_component(self):
        from repro.desim.engine import Environment
        from repro.desim.rng import RandomStreams

        builder = PlatformBuilder(short_config())
        platform = builder.build(Environment(), RandomStreams(0))
        assert platform.scheduler.bus is platform.bus
        assert platform.infrastructure is platform.scheduler.infrastructure
        assert platform.injector is None  # fault-free defaults
        assert platform.factory.app is builder.app

    def test_session_delegates_to_builder(self):
        session = SimulationSession(short_config())
        result = session.run(seed=1)
        assert result.completed_runs > 0
        assert session.bus is session.scheduler.bus

    def test_builder_session_matches_plain_session(self):
        config = short_config()
        plain = SimulationSession(config).run(seed=5)
        built = SimulationSession(
            config, builder=PlatformBuilder(config)
        ).run(seed=5)
        assert built == plain

    def test_stage_override_replaces_one_layer(self):
        class PinnedScalingBuilder(PlatformBuilder):
            def build_scaling(self):
                return AlwaysScale()

        config = short_config()
        session = SimulationSession(
            config, builder=PinnedScalingBuilder(config)
        )
        session.run(seed=2)
        assert isinstance(session.scheduler.scaling, AlwaysScale)

    def test_fixed_plan_builder_runs_every_stage_on_its_plan(self):
        # Figure 5's seam: the plan replaces the allocation stage, whatever
        # the configured algorithm would have picked.
        plan = ExecutionPlan((2, 1, 4, 1, 8, 1, 2))
        config = short_config(
            scheduler={"allocation": AllocationAlgorithm.BEST_CONSTANT}
        )
        builder = FixedPlanBuilder(config, plan)
        assert builder._constant_plan != plan
        session = SimulationSession(config, builder=builder)
        session.run(seed=3)
        records = [
            record
            for job in session.scheduler.completed_jobs
            for record in job.history
        ]
        assert records
        assert all(r.threads == plan.threads[r.stage] for r in records)

    def test_observers_attach_after_assembly(self):
        seen = {}

        def observer(bus, platform):
            seen["bus"] = bus
            seen["scheduler"] = platform.scheduler

        config = short_config()
        session = SimulationSession(config, observers=[observer])
        session.run(seed=1)
        assert seen["bus"] is session.bus
        assert seen["scheduler"] is session.scheduler


class TestBusDuringRuns:
    def test_task_lifecycle_published(self):
        recorder = EventRecorder()
        config = short_config()
        session = SimulationSession(
            config, observers=[lambda bus, p: recorder.attach(bus)]
        )
        result = session.run(seed=1)
        started = recorder.of_type(TaskStarted)
        finished = recorder.of_type(TaskFinished)
        completed = recorder.of_type(JobCompleted)
        assert len(started) >= result.completed_runs * session.app.n_stages
        assert all(e.outcome == "completed" for e in finished)  # no faults
        assert len(completed) == result.completed_runs
        assert [e.job for e in completed] == [
            j.name for j in session.scheduler.completed_jobs
        ]
        assert recorder.of_type(WorkerHired)  # something got hired

    def test_latency_monitor_observer_tracks_completions(self):
        watcher = LatencyMonitorObserver()
        session = SimulationSession(short_config(), observers=[watcher])
        result = session.run(seed=3)
        assert len(watcher.monitor) == result.completed_runs
        assert watcher.monitor.mean() > 0

    def test_decisions_not_published_without_telemetry(self):
        # The _explain gate: without audit/tracer the scheduler skips
        # decision publication entirely (the pre-bus metrics-only quirk).
        recorder = EventRecorder()
        session = SimulationSession(
            short_config(), observers=[lambda bus, p: recorder.attach(bus)]
        )
        session.run(seed=1)
        assert recorder.of_type(ScalingDecisionMade) == []

    def test_observer_attachment_never_changes_results(self):
        config = chaos_config()
        bare = SimulationSession(config).run(seed=9)
        recorder = EventRecorder()
        watched = SimulationSession(
            config,
            observers=[
                lambda bus, p: recorder.attach(bus),
                LatencyMonitorObserver(),
            ],
        ).run(seed=9)
        assert watched == bare
        assert len(recorder) > 0
