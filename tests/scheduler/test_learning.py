"""Tests for the learning-guided allocation extension."""

import pytest

from repro.cloud.infrastructure import Infrastructure
from repro.core.config import AllocationAlgorithm
from repro.core.errors import SchedulingError
from repro.scheduler.allocation import AllocationContext, make_allocation_policy
from repro.scheduler.costs import TieredCostFunction
from repro.scheduler.estimator import PipelineEstimator
from repro.scheduler.learning import ArmStats, LearnedAllocation
from repro.scheduler.rewards import TimeReward
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


class TestArmStats:
    def test_running_mean(self):
        arm = ArmStats()
        for d in (10.0, 20.0, 30.0):
            arm.update(d)
        assert arm.pulls == 3
        assert arm.mean_duration == pytest.approx(20.0)


class TestColdStart:
    def test_cold_start_matches_model_based_greedy(self, ctx, gatk_model):
        """With no observations and exploration off, the learner's choices
        equal the greedy model-based ones."""
        from repro.scheduler.allocation import GreedyAllocation

        learner = LearnedAllocation(epsilon=0.0, seed=1)
        greedy = GreedyAllocation()
        job = job_of(gatk_model)
        for stage in range(7):
            assert learner.threads_for_stage(job, stage, ctx) == (
                greedy.threads_for_stage(job, stage, ctx)
            )

    def test_no_plan_on_submit(self, ctx, gatk_model):
        learner = LearnedAllocation()
        job = job_of(gatk_model)
        learner.on_submit(job, ctx)
        assert job.plan is None


class TestLearning:
    def test_feedback_overrides_wrong_model(self, ctx, gatk_model):
        """If reality says threads do not help a stage (despite the model's
        optimistic c), the learner stops buying them."""
        learner = LearnedAllocation(epsilon=0.0, seed=2)
        job = job_of(gatk_model)
        stage = 4  # model says c=0.91: very parallel
        base = gatk_model.stage(stage).execution_time(job.input_gb)
        # Reality: every thread count takes the full serial time.
        for threads in (1, 2, 4, 8, 16):
            for _ in range(3):
                learner.observe_completion(job, stage, threads, base)
        assert learner.threads_for_stage(job, stage, ctx) == 1

    def test_feedback_confirms_good_model(self, ctx, gatk_model):
        """Observations matching the model keep the model's choice."""
        from repro.scheduler.allocation import GreedyAllocation

        learner = LearnedAllocation(epsilon=0.0, seed=3)
        job = job_of(gatk_model)
        stage = 4
        for threads in (1, 2, 4, 8, 16):
            duration = gatk_model.stage(stage).threaded_time(threads, job.input_gb)
            learner.observe_completion(job, stage, threads, duration)
        expected = GreedyAllocation().threads_for_stage(job, stage, ctx)
        assert learner.threads_for_stage(job, stage, ctx) == expected

    def test_size_bands_keep_jobs_separate(self, ctx, gatk_model):
        learner = LearnedAllocation(epsilon=0.0, seed=4, size_bands=4)
        small = job_of(gatk_model, size=1.0)
        large = job_of(gatk_model, size=9.0)
        # Poison the large band only.
        base = gatk_model.stage(4).execution_time(large.input_gb)
        for threads in (1, 2, 4, 8, 16):
            learner.observe_completion(large, 4, threads, base)
        assert learner.threads_for_stage(large, 4, ctx) == 1
        # The small band is untouched: still model-driven (multi-threaded).
        assert learner.threads_for_stage(small, 4, ctx) > 1

    def test_exploration_happens_and_decays(self, ctx, gatk_model):
        learner = LearnedAllocation(epsilon=1.0, seed=5)
        job = job_of(gatk_model)
        for i in range(50):
            learner.threads_for_stage(job, 0, ctx)
            learner.observe_completion(job, 0, 1, 1.0)
        assert learner.explorations > 0
        # Decayed below the initial epsilon: some choices were greedy.
        assert learner.explorations < learner.decisions

    def test_negative_duration_rejected(self, gatk_model):
        learner = LearnedAllocation()
        with pytest.raises(SchedulingError):
            learner.observe_completion(job_of(gatk_model), 0, 1, -1.0)


class TestIntegration:
    def test_factory_builds_learner(self):
        policy = make_allocation_policy(AllocationAlgorithm.LEARNED)
        assert isinstance(policy, LearnedAllocation)

    def test_full_session_with_learning(self, gatk_model):
        from repro.core.config import PlatformConfig
        from repro.sim.session import SimulationSession

        config = PlatformConfig.paper_defaults().with_overrides(
            simulation={"duration": 150.0},
            scheduler={"allocation": AllocationAlgorithm.LEARNED},
        )
        session = SimulationSession(config)
        result = session.run(seed=6)
        assert result.completed_runs > 0
        learner = session.scheduler.allocation
        assert isinstance(learner, LearnedAllocation)
        assert learner.decisions > 0

    def test_validation(self):
        with pytest.raises(SchedulingError):
            LearnedAllocation(epsilon=1.5)
        with pytest.raises(SchedulingError):
            LearnedAllocation(size_bands=0)
