"""Tests for the believed-vs-actual model seam (profiling drift)."""

import pytest

from repro.apps.base import ApplicationModel, ExecutionPlan, StageModel
from repro.cloud.celar import CelarManager
from repro.cloud.infrastructure import Infrastructure
from repro.core.errors import SchedulingError
from repro.desim.engine import Environment
from repro.genomics.datasets import DataFormat
from repro.scheduler.allocation import BestConstantAllocation
from repro.scheduler.rewards import TimeReward
from repro.scheduler.scaling import AlwaysScale
from repro.scheduler.scheduler import SCANScheduler
from repro.scheduler.tasks import Job


def two_stage_app(name, times):
    """An app whose stages take exactly *times* TU at d=1 (a=0, b=t)."""
    stages = tuple(
        StageModel(index=i, name=f"s{i}", a=0.0, b=t, c=0.0)
        for i, t in enumerate(times)
    )
    return ApplicationModel(
        name=name, stages=stages,
        input_format=DataFormat.BAM, output_format=DataFormat.VCF,
        worker_class="gatk",
    )


def build(env, believed, actual=None):
    infra = Infrastructure(env, private_cores=64)
    celar = CelarManager(env, infra, startup_penalty_tu=0.0)
    scheduler = SCANScheduler(
        env, believed, infra, celar, TimeReward(),
        BestConstantAllocation(ExecutionPlan.uniform(believed.n_stages, 1)),
        AlwaysScale(),
        actual_app=actual,
    )
    scheduler.start()
    return scheduler


class TestActualApp:
    def test_default_reality_is_the_believed_model(self):
        env = Environment()
        believed = two_stage_app("gatk", (3.0, 7.0))
        scheduler = build(env, believed)
        job = Job(app=believed, size=1.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=100.0)
        assert job.latency() == pytest.approx(10.0)

    def test_execution_follows_actual_model(self):
        env = Environment()
        believed = two_stage_app("gatk", (3.0, 7.0))
        actual = two_stage_app("gatk", (6.0, 14.0))  # everything 2x slower
        scheduler = build(env, believed, actual)
        job = Job(app=believed, size=1.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=100.0)
        assert job.latency() == pytest.approx(20.0)

    def test_stage_count_mismatch_rejected(self):
        env = Environment()
        believed = two_stage_app("gatk", (3.0, 7.0))
        actual = two_stage_app("gatk", (3.0, 7.0, 1.0))
        with pytest.raises(SchedulingError):
            build(env, believed, actual)

    def test_learning_feedback_sees_actual_durations(self, gatk_model):
        """The learner's observations come from reality, not the belief."""
        from repro.core.config import AllocationAlgorithm, PlatformConfig
        from repro.sim.session import SimulationSession
        from repro.apps.gatk import build_gatk_model

        slow = ApplicationModel(
            name="gatk",
            stages=tuple(
                StageModel(index=s.index, name=s.name, a=s.a * 2,
                           b=s.b * 2, c=s.c, ram_gb=s.ram_gb)
                for s in build_gatk_model().stages
            ),
            input_format=DataFormat.BAM,
            output_format=DataFormat.VCF,
        )
        config = PlatformConfig.paper_defaults().with_overrides(
            simulation={"duration": 120.0},
            scheduler={"allocation": AllocationAlgorithm.LEARNED},
        )
        session = SimulationSession(config, actual_app=slow)
        session.run(seed=3)
        learner = session.scheduler.allocation
        table = {
            key: (arm.pulls, arm.mean_duration)
            for key, arm in learner._arms.items()
        }
        assert table  # observations happened
        # Any observed single-thread duration must match the SLOW model at
        # some plausible size, i.e. exceed the believed model's duration.
        for (stage, _band, threads), (_pulls, mean) in table.items():
            if threads == 1 and mean > 0:
                believed_at_mean_size = gatk_model.stage(stage).execution_time(5.0)
                # slow model doubles a and b: strictly above belief for the
                # same input; sizes vary, so compare against the smallest
                # plausible believed duration instead of exact equality.
                assert mean > 0.5 * believed_at_mean_size
