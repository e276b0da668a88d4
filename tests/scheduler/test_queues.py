"""Tests for per-stage FIFO queues."""

import pytest

from repro.core.errors import SchedulingError
from repro.scheduler.queues import QueueSet, StageQueue
from repro.scheduler.tasks import Job, StageTask


@pytest.fixture
def job(gatk_model):
    return Job(app=gatk_model, size=5.0, submit_time=0.0)


def task_for(job, stage, t=0.0):
    return StageTask(job=job, stage=stage, enqueued_at=t)


class TestStageQueue:
    def test_fifo_order(self, gatk_model):
        q = StageQueue(0)
        jobs = [Job(app=gatk_model, size=1.0, submit_time=0.0) for _ in range(3)]
        for i, j in enumerate(jobs):
            q.push(task_for(j, 0), now=float(i))
        popped = [q.pop(now=10.0).job for _ in range(3)]
        assert popped == jobs

    def test_wrong_stage_rejected(self, job):
        q = StageQueue(2)
        with pytest.raises(SchedulingError):
            q.push(task_for(job, 0), now=0.0)

    def test_pop_empty_rejected(self):
        with pytest.raises(SchedulingError):
            StageQueue(0).pop(now=0.0)

    def test_peek_does_not_remove(self, job):
        q = StageQueue(0)
        q.push(task_for(job, 0), now=0.0)
        assert q.peek() is q.peek()
        assert len(q) == 1
        assert StageQueue(1).peek() is None

    def test_counters(self, job, gatk_model):
        q = StageQueue(0)
        q.push(task_for(job, 0), now=0.0)
        q.push(task_for(Job(app=gatk_model, size=1.0, submit_time=0.0), 0), now=1.0)
        q.pop(now=2.0)
        assert q.enqueued_total == 2
        assert q.dispatched_total == 1
        assert len(q) == 1

    def test_mean_length_time_weighted(self, job, gatk_model):
        q = StageQueue(0, start_time=0.0)
        q.push(task_for(job, 0), now=0.0)  # length 1 from t=0
        q.push(task_for(Job(app=gatk_model, size=1.0, submit_time=0.0), 0), now=5.0)
        q.pop(now=10.0)  # length 2 during [5,10)
        # avg over [0,10): (1*5 + 2*5)/10 = 1.5
        assert q.length_monitor.time_average(10.0) == pytest.approx(1.5)

    def test_iteration_front_to_back(self, gatk_model):
        q = StageQueue(0)
        jobs = [Job(app=gatk_model, size=1.0, submit_time=0.0) for _ in range(3)]
        for j in jobs:
            q.push(task_for(j, 0), 0.0)
        assert [t.job for t in q] == jobs


class TestQueueSet:
    def test_one_queue_per_stage(self):
        qs = QueueSet(7)
        assert len(qs) == 7
        assert qs[3].stage == 3

    def test_total_waiting_and_lengths(self, gatk_model):
        qs = QueueSet(3)
        j = Job(app=gatk_model, size=1.0, submit_time=0.0)
        qs[0].push(task_for(j, 0), 0.0)
        qs[2].push(task_for(Job(app=gatk_model, size=1.0, submit_time=0.0), 2), 0.0)
        assert qs.total_waiting() == 2
        assert qs.lengths() == (1, 0, 1)

    def test_zero_stages_rejected(self):
        with pytest.raises(SchedulingError):
            QueueSet(0)
