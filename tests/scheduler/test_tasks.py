"""Tests for jobs and stage tasks."""

import pytest

from repro.core.errors import SchedulingError
from repro.apps.base import ExecutionPlan
from repro.scheduler.tasks import Job, JobState, StageRecord, StageTask


@pytest.fixture
def job(gatk_model):
    return Job(app=gatk_model, size=5.0, submit_time=10.0)


def record(stage, start=20.0, end=30.0, queued=15.0, threads=2):
    return StageRecord(
        stage=stage, queued_at=queued, started_at=start,
        finished_at=end, threads=threads, tier="private",
    )


class TestJob:
    def test_initial_state(self, job):
        assert job.state is JobState.SUBMITTED
        assert job.current_stage == 0
        assert job.records == 5.0
        assert job.input_gb == 5.0  # default 1 unit = 1 GB
        assert not job.is_complete

    def test_input_gb_override(self, gatk_model):
        job = Job(app=gatk_model, size=5.0, submit_time=0.0, input_gb=10.0)
        assert job.size == 5.0
        assert job.input_gb == 10.0

    def test_size_must_be_positive(self, gatk_model):
        with pytest.raises(SchedulingError):
            Job(app=gatk_model, size=0.0, submit_time=0.0)

    def test_elapsed(self, job):
        assert job.elapsed(25.0) == pytest.approx(15.0)

    def test_planned_threads_defaults_to_one(self, job):
        assert job.planned_threads(3) == 1
        job.plan = ExecutionPlan.uniform(7, 4)
        assert job.planned_threads(3) == 4

    def test_stage_records_must_be_in_order(self, job):
        job.record_stage(record(0))
        with pytest.raises(SchedulingError):
            job.record_stage(record(2))
        job.record_stage(record(1))
        assert job.current_stage == 2

    def test_complete_requires_all_stages(self, job):
        with pytest.raises(SchedulingError):
            job.complete(99.0, 100.0)

    def test_complete_and_latency(self, job):
        for stage in range(7):
            job.record_stage(record(stage))
        job.complete(60.0, 123.0)
        assert job.is_complete
        assert job.latency() == pytest.approx(50.0)
        assert job.reward_paid == 123.0

    def test_latency_before_completion_raises(self, job):
        with pytest.raises(SchedulingError):
            job.latency()

    def test_core_stages_sums_threads(self, job):
        for stage in range(3):
            job.record_stage(record(stage, threads=stage + 1))
        assert job.core_stages() == 6

    def test_names_unique_by_default(self, gatk_model):
        a = Job(app=gatk_model, size=1.0, submit_time=0.0)
        b = Job(app=gatk_model, size=1.0, submit_time=0.0)
        assert a.name != b.name


class TestStageRecord:
    def test_derived_durations(self):
        r = record(0, start=20.0, end=33.0, queued=15.0)
        assert r.duration == pytest.approx(13.0)


class TestStageTask:
    def test_out_of_range_stage_rejected(self, job):
        with pytest.raises(SchedulingError):
            StageTask(job=job, stage=7, enqueued_at=0.0)

    def test_execution_time_uses_stage_model(self, job, gatk_model):
        task = StageTask(job=job, stage=0, enqueued_at=0.0)
        expected = gatk_model.stage(0).threaded_time(4, 5.0)
        assert task.execution_time(4) == pytest.approx(expected)

    def test_execution_time_uses_input_gb_not_size(self, gatk_model):
        job = Job(app=gatk_model, size=5.0, submit_time=0.0, input_gb=10.0)
        task = StageTask(job=job, stage=0, enqueued_at=0.0)
        expected = gatk_model.stage(0).threaded_time(1, 10.0)
        assert task.execution_time(1) == pytest.approx(expected)

    def test_size_passthrough(self, job):
        task = StageTask(job=job, stage=0, enqueued_at=0.0)
        assert task.size == 5.0
