"""The zero-ETT contract of latency-free rewards.

The time reward's marginal value is ``d * Rpenalty`` at every latency, so
greedy, learned and long-term allocation and Eq. 1 must price time under
it without ever estimating an ETT (Eq. 2).  A reward whose marginal value
depends on latency (the throughput scheme, or any reward that does not
declare ``latency_free``) keeps the ETT path, with the same floats the
per-job loops always produced.
"""

from __future__ import annotations

import pytest

from repro.apps.base import ExecutionPlan
from repro.cloud.infrastructure import Infrastructure
from repro.scheduler.allocation import (
    AllocationContext,
    GreedyAllocation,
    LongTermAdaptiveAllocation,
    LongTermAllocation,
    _best_stage_threads,
    _optimise_plan,
)
from repro.scheduler.costs import TieredCostFunction
from repro.scheduler.estimator import (
    PipelineEstimator,
    delay_cost,
    delay_cost_terms,
)
from repro.scheduler.learning import LearnedAllocation
from repro.scheduler.queues import StageQueue
from repro.scheduler.rewards import ThroughputReward, TimeReward, is_latency_free
from repro.scheduler.tasks import Job, StageTask

CHOICES = (1, 2, 4, 8, 16)
SIZES = (5.0, 3.25, 7.5, 1.1, 12.0)
NOW = 40.0


class NoETTEstimator(PipelineEstimator):
    """An estimator whose ETT must never be asked for."""

    def ett(self, job, now, threads_per_stage=None):
        raise AssertionError("a latency-free reward estimated an ETT")


class CountingEstimator(PipelineEstimator):
    """The real estimator, counting ETT calls."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ett_calls = 0

    def ett(self, job, now, threads_per_stage=None):
        self.ett_calls += 1
        return super().ett(job, now, threads_per_stage)


class UndeclaredReward:
    """A plug-in reward that says nothing about latency dependence."""

    def __init__(self) -> None:
        self.inner = TimeReward()

    def __call__(self, latency, records):
        return self.inner(latency, records)

    def marginal_value(self, latency, records):
        return self.inner.marginal_value(latency, records)


def _ctx(env, estimator, reward) -> AllocationContext:
    return AllocationContext(
        estimator=estimator,
        reward=reward,
        costs=TieredCostFunction(Infrastructure(env, private_cores=624)),
        thread_choices=CHOICES,
        now=NOW,
    )


def _jobs(gatk_model) -> list[Job]:
    return [
        Job(app=gatk_model, size=size, submit_time=float(i))
        for i, size in enumerate(SIZES)
    ]


def _queue(jobs) -> StageQueue:
    q = StageQueue(stage=0)
    for job in jobs:
        q.push(StageTask(job=job, stage=0, enqueued_at=0.0), now=0.0)
    return q


def _reference_delay_cost(queue, estimator, reward, delay) -> float:
    """Eq. 1 summed job by job, as it is written."""
    total = 0.0
    for task in queue:
        ett = estimator.ett(task.job, NOW)
        total += reward(max(ett, 0.0), task.job.records) - reward(
            max(ett + delay, 0.0), task.job.records
        )
    return total


def _reference_plan(job, ctx, from_stage=0) -> ExecutionPlan:
    """Two coordinate-descent sweeps, each re-pricing time at the ETT."""
    current = list(job.plan.threads if job.plan else [1] * job.n_stages)
    core_cost = ctx.costs.marginal_core_cost(1)
    for _ in range(2):
        ett = ctx.estimator.ett(job, ctx.now, threads_per_stage=current)
        value = ctx.reward.marginal_value(max(ett, 0.0), job.records)
        for stage in range(from_stage, job.n_stages):
            current[stage] = _best_stage_threads(
                job.app.stage(stage), job.input_gb, value, core_cost, CHOICES
            )
    return ExecutionPlan(tuple(current))


class TestDeclaration:
    def test_time_reward_is_latency_free(self):
        assert TimeReward.latency_free is True
        assert is_latency_free(TimeReward())

    def test_throughput_reward_is_not(self):
        assert ThroughputReward.latency_free is False
        assert not is_latency_free(ThroughputReward())

    def test_undeclared_counts_as_false(self):
        assert not is_latency_free(UndeclaredReward())


class TestTimeRewardNeedsNoETT:
    """Every site runs against an estimator whose ``ett`` raises."""

    @pytest.fixture
    def ctx(self, env, gatk_model):
        return _ctx(env, NoETTEstimator(gatk_model), TimeReward())

    def test_greedy(self, ctx, gatk_model):
        for job in _jobs(gatk_model):
            for stage in range(job.n_stages):
                GreedyAllocation().threads_for_stage(job, stage, ctx)

    def test_learned(self, ctx, gatk_model):
        policy = LearnedAllocation(epsilon=0.0)
        for job in _jobs(gatk_model):
            policy.threads_for_stage(job, 4, ctx)

    def test_optimise_plan(self, ctx, gatk_model):
        for job in _jobs(gatk_model):
            LongTermAllocation().on_submit(job, ctx)
            LongTermAdaptiveAllocation().threads_for_stage(job, 3, ctx)

    def test_delay_cost(self, ctx, gatk_model):
        queue = _queue(_jobs(gatk_model))
        assert delay_cost(queue, ctx.estimator, ctx.reward, 2.5, NOW) > 0.0


class TestTimeRewardValues:
    @pytest.fixture
    def estimator(self, gatk_model):
        return PipelineEstimator(gatk_model)

    @pytest.mark.parametrize("delay", [0.25, 1.0, 4.75])
    def test_delay_cost_matches_per_job_sum(self, estimator, gatk_model, delay):
        queue = _queue(_jobs(gatk_model))
        reward = TimeReward()
        assert delay_cost(queue, estimator, reward, delay, NOW) == pytest.approx(
            _reference_delay_cost(queue, estimator, reward, delay), rel=1e-12
        )

    def test_explained_total_is_the_same_float(self, estimator, gatk_model):
        queue = _queue(_jobs(gatk_model))
        reward = TimeReward()
        total, terms = delay_cost_terms(queue, estimator, reward, 1.5, NOW)
        assert total == delay_cost(queue, estimator, reward, 1.5, NOW)
        # The audit record still carries each job's ETT.
        assert [t.ett_now for t in terms] == [
            estimator.ett(task.job, NOW) for task in queue
        ]

    def test_one_sweep_equals_two(self, env, gatk_model):
        ctx = _ctx(env, PipelineEstimator(gatk_model), TimeReward())
        for job in _jobs(gatk_model):
            assert _optimise_plan(job.app, job, ctx, 0) == _reference_plan(
                job, ctx
            )


@pytest.mark.parametrize("reward", [ThroughputReward(), UndeclaredReward()])
class TestLatencyDependentRewardKeepsETT:
    """Each site is ``==`` the per-job loop and does ask for ETT."""

    @pytest.fixture
    def ctx(self, env, gatk_model, reward):
        return _ctx(env, CountingEstimator(gatk_model), reward)

    def test_greedy(self, ctx, gatk_model, reward):
        for job in _jobs(gatk_model):
            for stage in range(job.n_stages):
                ett = PipelineEstimator(gatk_model).ett(job, NOW)
                value = reward.marginal_value(max(ett, 0.0), job.records)
                expected = _best_stage_threads(
                    gatk_model.stage(stage), job.input_gb, value,
                    ctx.costs.marginal_core_cost(1), CHOICES,
                )
                got = GreedyAllocation().threads_for_stage(job, stage, ctx)
                assert got == expected
        assert ctx.estimator.ett_calls == len(SIZES) * gatk_model.n_stages

    def test_learned(self, ctx, gatk_model, reward):
        policy = LearnedAllocation(epsilon=0.0)
        for job in _jobs(gatk_model):
            ett = PipelineEstimator(gatk_model).ett(job, NOW)
            value = reward.marginal_value(max(ett, 0.0), job.records)
            band = policy._band(job.input_gb)
            core_cost = ctx.costs.marginal_core_cost(1)
            base = policy._duration_estimate(job, 4, band, 1, ctx)
            expected, best = CHOICES[0], None
            for t in CHOICES:
                duration = policy._duration_estimate(job, 4, band, t, ctx)
                profit = value * (base - duration) - core_cost * t * duration
                if best is None or profit > best + 1e-12:
                    expected, best = t, profit
            assert policy.threads_for_stage(job, 4, ctx) == expected
        assert ctx.estimator.ett_calls == len(SIZES)

    def test_optimise_plan(self, env, ctx, gatk_model, reward):
        for job in _jobs(gatk_model):
            reference_ctx = _ctx(env, PipelineEstimator(gatk_model), reward)
            expected = _reference_plan(job, reference_ctx)
            assert _optimise_plan(job.app, job, ctx, 0) == expected
        assert ctx.estimator.ett_calls == 2 * len(SIZES)

    def test_delay_cost(self, ctx, gatk_model, reward):
        queue = _queue(_jobs(gatk_model))
        expected = _reference_delay_cost(
            queue, PipelineEstimator(gatk_model), reward, 2.0
        )
        assert delay_cost(queue, ctx.estimator, reward, 2.0, NOW) == expected
        assert ctx.estimator.ett_calls == len(SIZES)
        total, _terms = delay_cost_terms(queue, ctx.estimator, reward, 2.0, NOW)
        assert total == expected
