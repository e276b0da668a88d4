"""Integration-grade tests for the SCANScheduler."""

import pytest

from repro.apps.base import ExecutionPlan
from repro.cloud.celar import CelarManager
from repro.cloud.infrastructure import Infrastructure
from repro.core.config import SchedulerConfig
from repro.core.errors import SchedulingError
from repro.core.bus import (
    EventRecorder,
    JobCompleted,
    StageCompleted,
    TaskQueued,
    TaskStarted,
)
from repro.desim.engine import Environment
from repro.scheduler.allocation import BestConstantAllocation, GreedyAllocation
from repro.scheduler.rewards import TimeReward
from repro.scheduler.scaling import AlwaysScale, NeverScale
from repro.scheduler.scheduler import SCANScheduler
from repro.scheduler.tasks import Job


def build_scheduler(
    env,
    gatk_model,
    private_cores=624,
    public_cost=50.0,
    allocation=None,
    scaling=None,
    config=None,
):
    infra = Infrastructure(
        env, private_cores=private_cores, private_cost=5.0,
        public_cores=1_000_000, public_cost=public_cost,
    )
    celar = CelarManager(env, infra, startup_penalty_tu=0.5)
    scheduler = SCANScheduler(
        env,
        gatk_model,
        infra,
        celar,
        TimeReward(),
        allocation or BestConstantAllocation(ExecutionPlan.uniform(7, 1)),
        scaling or AlwaysScale(),
        config=config or SchedulerConfig(),
    )
    scheduler.start()
    return scheduler


class TestSingleJob:
    def test_job_runs_through_all_stages(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        job = Job(app=gatk_model, size=5.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=500.0)
        assert job.is_complete
        assert len(job.history) == 7
        assert scheduler.completed_jobs == [job]

    def test_latency_close_to_model_prediction(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        job = Job(app=gatk_model, size=5.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=500.0)
        # Single-threaded sequential time + 7 boots (0.5 each, workers are
        # reused across stages when shapes match, so <= 7 boots).
        model_time = sum(s.execution_time(5.0) for s in gatk_model.stages)
        assert job.latency() >= model_time
        assert job.latency() <= model_time + 7 * 0.5 + 1e-6

    def test_reward_paid_matches_function(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        job = Job(app=gatk_model, size=5.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=500.0)
        expected = TimeReward()(job.latency(), 5.0)
        assert job.reward_paid == pytest.approx(expected)
        assert scheduler.total_reward == pytest.approx(expected)

    def test_stage_history_consistent(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        job = Job(app=gatk_model, size=5.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=500.0)
        for i, rec in enumerate(job.history):
            assert rec.stage == i
            assert rec.finished_at > rec.started_at >= rec.queued_at
        # Stages execute strictly in sequence.
        for a, b in zip(job.history, job.history[1:]):
            assert b.queued_at >= a.finished_at - 1e-9

    def test_wrong_app_rejected(self, gatk_model, registry):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        bwa_job = Job(app=registry.get("bwa"), size=5.0, submit_time=0.0)
        with pytest.raises(SchedulingError):
            scheduler.submit(bwa_job)

    def test_double_start_rejected(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        with pytest.raises(SchedulingError):
            scheduler.start()


class TestEvents:
    def test_event_stream_for_one_job(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        recorder = EventRecorder().attach(scheduler.bus)
        job = Job(app=gatk_model, size=5.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=500.0)
        assert scheduler.submitted_jobs == [job]
        assert len(recorder.of_type(TaskQueued)) == 7
        assert len(recorder.of_type(TaskStarted)) == 7
        assert len(recorder.of_type(StageCompleted)) == 7
        (completed,) = recorder.of_type(JobCompleted)
        assert completed.reward == job.reward_paid

    def test_stage_completed_carries_kb_fields(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        recorder = EventRecorder().attach(scheduler.bus, [StageCompleted])
        job = Job(app=gatk_model, size=5.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=500.0)
        events = recorder.of_type(StageCompleted)
        assert [e.stage for e in events] == list(range(7))
        for event, record in zip(events, job.history):
            assert event.app == gatk_model.name
            assert event.input_gb == job.input_gb
            assert event.threads == record.threads
            assert event.duration == pytest.approx(
                record.finished_at - record.started_at
            )


class TestConcurrency:
    def test_parallel_jobs_share_the_cluster(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        jobs = [Job(app=gatk_model, size=2.0, submit_time=0.0) for _ in range(10)]
        for job in jobs:
            scheduler.submit(job)
        env.run(until=1000.0)
        assert all(j.is_complete for j in jobs)
        # With ample private capacity, jobs overlap: the makespan is far
        # below 10 sequential runs.
        makespan = max(j.completed_at for j in jobs)
        sequential = sum(s.execution_time(2.0) for s in gatk_model.stages)
        assert makespan < 10 * sequential * 0.5

    def test_workers_reused_across_jobs(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        for _ in range(5):
            scheduler.submit(Job(app=gatk_model, size=2.0, submit_time=0.0))
        env.run(until=1000.0)
        # Fewer hires than stage-tasks proves reuse.
        total_hires = sum(scheduler.pools.hires.values())
        assert total_hires < 5 * 7

    def test_tier_accounting_conserved(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        for _ in range(8):
            scheduler.submit(Job(app=gatk_model, size=3.0, submit_time=0.0))
        env.run(until=2000.0)
        # All work done, reaper eventually frees everything.
        assert scheduler.queues.total_waiting() == 0
        infra = scheduler.infrastructure
        alive_cores = sum(w.cores for w in scheduler.pools.idle_workers) + sum(
            w.cores for w in scheduler.pools.busy_workers
        )
        assert infra.total_cores_in_use() == alive_cores


class TestScalingBehaviour:
    def test_never_scale_uses_no_public_cores(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(
            env, gatk_model, private_cores=8, scaling=NeverScale()
        )
        for _ in range(6):
            scheduler.submit(Job(app=gatk_model, size=5.0, submit_time=0.0))
        env.run(until=3000.0)
        assert scheduler.pools.hires["public"] == 0
        assert all(j.is_complete for j in scheduler.submitted_jobs)

    def test_always_scale_goes_public_under_pressure(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(
            env, gatk_model, private_cores=4, scaling=AlwaysScale()
        )
        for _ in range(8):
            scheduler.submit(Job(app=gatk_model, size=5.0, submit_time=0.0))
        env.run(until=3000.0)
        assert scheduler.pools.hires["public"] > 0

    def test_greedy_allocation_runs_clean(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(
            env, gatk_model, allocation=GreedyAllocation()
        )
        for _ in range(4):
            scheduler.submit(Job(app=gatk_model, size=5.0, submit_time=0.0))
        env.run(until=1000.0)
        assert len(scheduler.completed_jobs) == 4


class TestMetrics:
    def test_profit_is_reward_minus_cost(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        scheduler.submit(Job(app=gatk_model, size=5.0, submit_time=0.0))
        env.run(until=500.0)
        assert scheduler.profit() == pytest.approx(
            scheduler.total_reward - scheduler.total_cost()
        )
        assert scheduler.total_cost() > 0

    def test_mean_core_stages_single_threaded_plan(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        scheduler.submit(Job(app=gatk_model, size=5.0, submit_time=0.0))
        env.run(until=500.0)
        (job,) = scheduler.completed_jobs
        assert job.core_stages() == 7

    def test_empty_scheduler_metrics(self, gatk_model):
        env = Environment()
        scheduler = build_scheduler(env, gatk_model)
        assert scheduler.mean_profit_per_run() == 0.0
