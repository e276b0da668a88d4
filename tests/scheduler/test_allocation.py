"""Tests for the four resource-allocation algorithms."""

import pytest

from repro.apps.base import ExecutionPlan
from repro.cloud.infrastructure import Infrastructure
from repro.core.config import AllocationAlgorithm
from repro.core.errors import SchedulingError
from repro.scheduler.allocation import (
    AllocationContext,
    BestConstantAllocation,
    GreedyAllocation,
    LongTermAdaptiveAllocation,
    LongTermAllocation,
    find_best_constant_plan,
    make_allocation_policy,
)
from repro.scheduler.costs import TieredCostFunction
from repro.scheduler.estimator import PipelineEstimator
from repro.scheduler.rewards import ThroughputReward, TimeReward
from repro.scheduler.tasks import Job


@pytest.fixture
def ctx(env, gatk_model):
    infra = Infrastructure(env, private_cores=624)
    return AllocationContext(
        estimator=PipelineEstimator(gatk_model),
        reward=TimeReward(),
        costs=TieredCostFunction(infra),
        thread_choices=(1, 2, 4, 8, 16),
        now=0.0,
    )


def job_of(gatk_model, size=5.0):
    return Job(app=gatk_model, size=size, submit_time=0.0)


class TestGreedy:
    def test_no_plan_on_submit(self, ctx, gatk_model):
        policy = GreedyAllocation()
        job = job_of(gatk_model)
        policy.on_submit(job, ctx)
        assert job.plan is None

    def test_serial_stage_gets_one_thread(self, ctx, gatk_model):
        policy = GreedyAllocation()
        job = job_of(gatk_model)
        # Stage 1 (c=0.02) can barely parallelise: never worth paying for.
        assert policy.threads_for_stage(job, 1, ctx) == 1

    def test_parallel_stage_gets_many_threads(self, ctx, gatk_model):
        policy = GreedyAllocation()
        job = job_of(gatk_model)
        # Stage 4 (c=0.91) at Rpenalty 15/TU/unit and 5 CU/core: threads pay.
        assert policy.threads_for_stage(job, 4, ctx) > 1

    def test_bigger_jobs_justify_more_threads(self, ctx, gatk_model):
        policy = GreedyAllocation()
        small = policy.threads_for_stage(job_of(gatk_model, 1.0), 4, ctx)
        large = policy.threads_for_stage(job_of(gatk_model, 20.0), 4, ctx)
        assert large >= small


class TestLongTerm:
    def test_plan_set_on_submit(self, ctx, gatk_model):
        policy = LongTermAllocation()
        job = job_of(gatk_model)
        policy.on_submit(job, ctx)
        assert job.plan is not None
        assert len(job.plan.threads) == 7

    def test_plan_respects_stage_scalability(self, ctx, gatk_model):
        policy = LongTermAllocation()
        job = job_of(gatk_model)
        policy.on_submit(job, ctx)
        threads = job.plan.threads
        # Serial stages (2 and 7, c=0.02) stay single-threaded; the most
        # parallel stage gets at least as many threads as the serial ones.
        assert threads[1] == 1
        assert threads[6] == 1
        assert threads[4] >= threads[1]

    def test_dispatch_uses_fixed_plan(self, ctx, gatk_model):
        policy = LongTermAllocation()
        job = job_of(gatk_model)
        policy.on_submit(job, ctx)
        planned = job.plan.threads
        for stage in range(7):
            assert policy.threads_for_stage(job, stage, ctx) == planned[stage]

    def test_unplanned_dispatch_rejected(self, ctx, gatk_model):
        policy = LongTermAllocation()
        with pytest.raises(SchedulingError):
            policy.threads_for_stage(job_of(gatk_model), 0, ctx)


class TestLongTermAdaptive:
    def test_replans_on_dispatch(self, ctx, gatk_model):
        policy = LongTermAdaptiveAllocation()
        job = job_of(gatk_model)
        policy.on_submit(job, ctx)
        original = job.plan
        # Large observed queue times change the marginal value landscape.
        ctx.estimator.observe_queue_wait(4, 50.0)
        threads = policy.threads_for_stage(job, 0, ctx)
        assert threads == job.plan.threads[0]
        assert job.plan is not original  # a fresh plan object

    def test_earlier_stage_choices_preserved(self, ctx, gatk_model):
        policy = LongTermAdaptiveAllocation()
        job = job_of(gatk_model)
        policy.on_submit(job, ctx)
        first = job.plan.threads[0]
        policy.threads_for_stage(job, 3, ctx)
        assert job.plan.threads[0] == first  # sunk stages untouched


class TestBestConstant:
    def test_same_plan_for_every_job(self, ctx, gatk_model):
        plan = ExecutionPlan.uniform(7, 2)
        policy = BestConstantAllocation(plan)
        a, b = job_of(gatk_model, 1.0), job_of(gatk_model, 9.0)
        policy.on_submit(a, ctx)
        policy.on_submit(b, ctx)
        assert a.plan is plan and b.plan is plan

    def test_wrong_length_plan_rejected(self, ctx, gatk_model):
        policy = BestConstantAllocation(ExecutionPlan.uniform(3, 1))
        with pytest.raises(SchedulingError):
            policy.on_submit(job_of(gatk_model), ctx)


class TestFindBestConstantPlan:
    def test_search_beats_naive_plans(self, gatk_model):
        reward = TimeReward()
        plan = find_best_constant_plan(gatk_model, reward, 5.0, 5.0)

        def profit(p):
            latency = sum(
                s.threaded_time(t, 5.0)
                for s, t in zip(gatk_model.stages, p.threads)
            )
            cost = sum(
                5.0 * t * s.threaded_time(t, 5.0)
                for s, t in zip(gatk_model.stages, p.threads)
            )
            return reward(latency, 5.0) - cost

        assert profit(plan) >= profit(ExecutionPlan.uniform(7, 1))
        assert profit(plan) >= profit(ExecutionPlan.uniform(7, 16))

    def test_expensive_cores_mean_thin_plans(self, gatk_model):
        cheap = find_best_constant_plan(gatk_model, TimeReward(), 0.01, 5.0)
        pricey = find_best_constant_plan(gatk_model, TimeReward(), 100.0, 5.0)
        assert pricey.total_cores <= cheap.total_cores

    def test_throughput_reward_supported(self, gatk_model):
        plan = find_best_constant_plan(gatk_model, ThroughputReward(), 5.0, 5.0)
        assert len(plan.threads) == 7

    def test_coordinate_descent_fallback(self, gatk_model):
        exhaustive = find_best_constant_plan(gatk_model, TimeReward(), 5.0, 5.0)
        descended = find_best_constant_plan(
            gatk_model, TimeReward(), 5.0, 5.0, max_exhaustive=10
        )
        # Both should find high-quality plans; descent must match the
        # exhaustive optimum here (the objective is near-separable).
        assert descended.total_cores == pytest.approx(
            exhaustive.total_cores, abs=8
        )

    def test_input_gb_changes_plan_scale(self, gatk_model):
        small = find_best_constant_plan(
            gatk_model, TimeReward(), 5.0, 5.0, input_gb=1.0
        )
        large = find_best_constant_plan(
            gatk_model, TimeReward(), 5.0, 5.0, input_gb=20.0
        )
        assert large.total_cores >= small.total_cores


class TestFactory:
    def test_all_algorithms_constructible(self):
        assert isinstance(
            make_allocation_policy(AllocationAlgorithm.GREEDY), GreedyAllocation
        )
        assert isinstance(
            make_allocation_policy(AllocationAlgorithm.LONG_TERM),
            LongTermAllocation,
        )
        assert isinstance(
            make_allocation_policy(AllocationAlgorithm.LONG_TERM_ADAPTIVE),
            LongTermAdaptiveAllocation,
        )
        assert isinstance(
            make_allocation_policy(
                AllocationAlgorithm.BEST_CONSTANT,
                constant_plan=ExecutionPlan.uniform(7, 1),
            ),
            BestConstantAllocation,
        )

    def test_best_constant_requires_plan(self):
        with pytest.raises(SchedulingError):
            make_allocation_policy(AllocationAlgorithm.BEST_CONSTANT)
