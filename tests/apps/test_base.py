"""Tests for stage models, application models and execution plans."""

import pytest

from repro.apps.base import ApplicationModel, ExecutionPlan, StageModel
from repro.genomics.datasets import DataFormat


def make_stage(index=0, a=1.0, b=2.0, c=0.5, name=""):
    return StageModel(index=index, name=name or f"s{index}", a=a, b=b, c=c)


class TestStageModel:
    def test_execution_time_linear(self):
        stage = make_stage(a=2.0, b=3.0)
        assert stage.execution_time(5.0) == pytest.approx(13.0)

    def test_negative_b_clamped_at_small_input(self):
        # Table II stage 2 has b = -0.53.
        stage = make_stage(a=2.70, b=-0.53, c=0.02)
        assert stage.execution_time(0.1) > 0.0

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            make_stage().execution_time(-1.0)

    def test_threaded_time_amdahl(self):
        stage = make_stage(a=1.0, b=0.0, c=0.8)
        base = stage.execution_time(10.0)
        assert stage.threaded_time(4, 10.0) == pytest.approx(
            0.8 * base / 4 + 0.2 * base
        )

    def test_speedup(self):
        stage = make_stage(c=0.9)
        assert stage.speedup(1) == pytest.approx(1.0)
        assert stage.speedup(16) == pytest.approx(1 / (0.9 / 16 + 0.1))

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError):
            make_stage(c=1.5)

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            make_stage(a=-0.1)


class TestApplicationModel:
    def make_app(self, n=3):
        stages = tuple(make_stage(index=i, a=1.0, b=1.0, c=0.5) for i in range(n))
        return ApplicationModel(
            name="app",
            stages=stages,
            input_format=DataFormat.BAM,
            output_format=DataFormat.VCF,
        )

    def test_stage_indices_must_be_sequential(self):
        with pytest.raises(ValueError):
            ApplicationModel(
                name="bad",
                stages=(make_stage(index=1),),
                input_format=DataFormat.BAM,
                output_format=DataFormat.VCF,
            )

    def test_at_least_one_stage(self):
        with pytest.raises(ValueError):
            ApplicationModel(
                name="bad", stages=(),
                input_format=DataFormat.BAM, output_format=DataFormat.VCF,
            )

    def test_worker_class_defaults_to_name(self):
        assert self.make_app().worker_class == "app"

    def test_core_stages(self):
        app = self.make_app(3)
        assert app.core_stages(ExecutionPlan((1, 4, 16))) == 21

    def test_max_ram(self):
        stages = (
            StageModel(0, "a", 1, 1, 0.5, ram_gb=4.0),
            StageModel(1, "b", 1, 1, 0.5, ram_gb=16.0),
        )
        app = ApplicationModel(
            "x", stages, DataFormat.BAM, DataFormat.VCF
        )
        assert app.max_ram_gb() == 16.0


class TestExecutionPlan:
    def test_uniform(self):
        plan = ExecutionPlan.uniform(7, threads=2)
        assert plan.threads == (2,) * 7
        assert plan.total_cores == 14

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPlan((1, 0))

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPlan(())

    def test_iter_and_len(self):
        plan = ExecutionPlan((1, 2, 4))
        assert list(plan) == [1, 2, 4]
        assert len(plan) == 3
