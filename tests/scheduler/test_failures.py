"""Failure-injection tests: VM deaths, task retries, resilience."""

import numpy as np
import pytest

from repro.apps.base import ExecutionPlan
from repro.cloud.celar import CelarManager
from repro.cloud.faults import FaultInjector, FaultPlan
from repro.cloud.infrastructure import Infrastructure
from repro.core.config import PlatformConfig
from repro.core.errors import CloudError
from repro.core.bus import EventRecorder, TaskQueued, WorkerFailed
from repro.desim.engine import Environment
from repro.desim.rng import RandomStreams
from repro.scheduler.allocation import BestConstantAllocation
from repro.scheduler.rewards import TimeReward
from repro.scheduler.scaling import AlwaysScale
from repro.scheduler.scheduler import SCANScheduler
from repro.scheduler.tasks import Job
from repro.sim.session import SimulationSession


def crash_injector(mtbf, seed, public_mtbf=None):
    plan = FaultPlan(mtbf_tu=mtbf, public_mtbf_tu=public_mtbf)
    return FaultInjector(plan, RandomStreams(seed))


class TestCrashLifetimes:
    def test_lifetime_mean_matches_mtbf(self):
        injector = crash_injector(50.0, seed=1)
        draws = [injector.draw_lifetime("private") for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(50.0, rel=0.05)

    def test_separate_public_mtbf(self):
        injector = crash_injector(100.0, seed=2, public_mtbf=10.0)
        assert injector.mtbf_for("private") == 100.0
        assert injector.mtbf_for("public") == 10.0
        # Every non-private tier shares the elastic profile.
        assert injector.mtbf_for("spot") == 10.0
        draws = [injector.draw_lifetime("public") for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(10.0, rel=0.05)
        # Without an override the public tier inherits the private MTBF.
        assert crash_injector(100.0, seed=2).mtbf_for("public") == 100.0

    def test_validation(self):
        with pytest.raises(CloudError):
            crash_injector(0.0, seed=3)
        with pytest.raises(CloudError):
            crash_injector(10.0, seed=3, public_mtbf=-1.0)


def build_failing_scheduler(env, gatk_model, mtbf):
    infra = Infrastructure(env, private_cores=624)
    celar = CelarManager(env, infra, startup_penalty_tu=0.5)
    scheduler = SCANScheduler(
        env, gatk_model, infra, celar, TimeReward(),
        BestConstantAllocation(ExecutionPlan.uniform(7, 1)),
        AlwaysScale(),
        faults=crash_injector(mtbf, seed=7),
    )
    scheduler.start()
    return scheduler


class TestSchedulerUnderFailures:
    def test_job_survives_worker_deaths(self, gatk_model):
        env = Environment()
        scheduler = build_failing_scheduler(env, gatk_model, mtbf=15.0)
        job = Job(app=gatk_model, size=5.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=5000.0)
        assert job.is_complete
        # With a ~79 TU pipeline and 15 TU MTBF, retries are near-certain.
        assert scheduler.task_retries > 0
        assert scheduler.pools.failed > 0

    def test_failed_stage_not_recorded_twice(self, gatk_model):
        env = Environment()
        scheduler = build_failing_scheduler(env, gatk_model, mtbf=10.0)
        job = Job(app=gatk_model, size=5.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=10_000.0)
        assert job.is_complete
        # Exactly one record per stage despite retries.
        assert [r.stage for r in job.history] == list(range(7))

    def test_failure_events_emitted(self, gatk_model):
        env = Environment()
        scheduler = build_failing_scheduler(env, gatk_model, mtbf=10.0)
        recorder = EventRecorder().attach(scheduler.bus)
        scheduler.submit(Job(app=gatk_model, size=5.0, submit_time=0.0))
        env.run(until=10_000.0)
        failed = len(recorder.of_type(WorkerFailed))
        retried = sum(
            1 for e in recorder.of_type(TaskQueued)
            if e.attempt > 1 and not e.speculative
        )
        assert failed >= 1
        assert retried >= 1
        # Every mid-task failure produced exactly one retry.
        assert failed >= retried

    def test_dead_workers_release_their_cores(self, gatk_model):
        env = Environment()
        scheduler = build_failing_scheduler(env, gatk_model, mtbf=8.0)
        for _ in range(3):
            scheduler.submit(Job(app=gatk_model, size=3.0, submit_time=0.0))
        env.run(until=10_000.0)
        infra = scheduler.infrastructure
        alive_cores = sum(
            w.cores for w in scheduler.pools.idle_workers
        ) + sum(w.cores for w in scheduler.pools.busy_workers)
        assert infra.total_cores_in_use() == alive_cores

    def test_latency_grows_under_failures(self, gatk_model):
        def run(mtbf):
            env = Environment()
            if mtbf is None:
                from repro.scheduler.workers import WorkerPools

                infra = Infrastructure(env, private_cores=624)
                celar = CelarManager(env, infra, startup_penalty_tu=0.5)
                scheduler = SCANScheduler(
                    env, gatk_model, infra, celar, TimeReward(),
                    BestConstantAllocation(ExecutionPlan.uniform(7, 1)),
                    AlwaysScale(),
                )
                scheduler.start()
            else:
                scheduler = build_failing_scheduler(env, gatk_model, mtbf)
            job = Job(app=gatk_model, size=5.0, submit_time=0.0)
            scheduler.submit(job)
            env.run(until=20_000.0)
            assert job.is_complete
            return job.latency()

        assert run(mtbf=12.0) > run(mtbf=None)


class TestSessionIntegration:
    def test_session_reports_failures(self):
        config = PlatformConfig.paper_defaults().with_overrides(
            simulation={"duration": 200.0},
            cloud={"vm_mtbf_tu": 25.0},
        )
        result = SimulationSession(config).run(seed=4)
        assert result.worker_failures > 0
        assert result.completed_runs > 0  # resilient despite churn

    def test_failures_deterministic_per_seed(self):
        config = PlatformConfig.paper_defaults().with_overrides(
            simulation={"duration": 150.0},
            cloud={"vm_mtbf_tu": 25.0},
        )
        a = SimulationSession(config).run(seed=9)
        b = SimulationSession(config).run(seed=9)
        assert a.worker_failures == b.worker_failures
        assert a.task_retries == b.task_retries

    def test_mtbf_none_means_no_failures(self):
        config = PlatformConfig.paper_defaults().with_overrides(
            simulation={"duration": 150.0},
        )
        result = SimulationSession(config).run(seed=4)
        assert result.worker_failures == 0
        assert result.task_retries == 0

    def test_config_validation(self):
        from repro.core.config import CloudConfig
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CloudConfig(vm_mtbf_tu=0.0).validate()
        CloudConfig(vm_mtbf_tu=None).validate()
        CloudConfig(vm_mtbf_tu=100.0).validate()
