"""Tests for performance profiles and regression fits."""

import pytest

from repro.analysis.amdahl import amdahl_time
from repro.core.errors import KnowledgeBaseError
from repro.knowledge.profiles import (
    ApplicationProfile,
    ProfileObservation,
    StageProfile,
)


def obs(app="gatk", stage=0, input_gb=1.0, threads=1, time=10.0):
    return ProfileObservation(
        app=app, stage=stage, input_gb=input_gb, threads=threads,
        execution_time=time,
    )


class TestObservation:
    def test_validation(self):
        with pytest.raises(ValueError):
            obs(input_gb=-1)
        with pytest.raises(ValueError):
            obs(threads=0)
        with pytest.raises(ValueError):
            obs(time=-5)


class TestStageProfile:
    def test_wrong_stage_rejected(self):
        profile = StageProfile("gatk", 0)
        with pytest.raises(KnowledgeBaseError):
            profile.add(obs(stage=1))
        with pytest.raises(KnowledgeBaseError):
            profile.add(obs(app="bwa"))

    def test_linear_fit_from_paper_profiling_range(self):
        """The paper profiled 1-9 GB inputs (Section III-A.1.i)."""
        profile = StageProfile("gatk", 0)
        for size in range(1, 10):
            profile.add(obs(input_gb=size, time=0.35 * size + 5.38))
        fit = profile.linear_fit
        assert fit.slope == pytest.approx(0.35)
        assert fit.intercept == pytest.approx(5.38)

    def test_insufficient_data_no_fit(self):
        profile = StageProfile("gatk", 0)
        profile.add(obs(input_gb=5.0, time=7.0))
        assert not profile.has_linear_fit
        with pytest.raises(KnowledgeBaseError):
            _ = profile.linear_fit

    def test_same_size_twice_is_insufficient(self):
        profile = StageProfile("gatk", 0)
        profile.add(obs(input_gb=5.0, time=7.0))
        profile.add(obs(input_gb=5.0, time=7.1))
        assert not profile.has_linear_fit

    def test_parallel_fraction_recovered(self):
        profile = StageProfile("gatk", 4)
        c_true = 0.91
        for size in (2.0, 5.0, 8.0):
            base = 1.03 * size + 17.86
            for threads in (1, 2, 4, 8, 16):
                profile.add(
                    obs(stage=4, input_gb=size, threads=threads,
                        time=amdahl_time(base, threads, c_true))
                )
        assert profile.parallel_fraction == pytest.approx(c_true, abs=0.01)

    def test_predict_combines_fits(self):
        profile = StageProfile("gatk", 0)
        for size in (1.0, 5.0, 9.0):
            for threads in (1, 4, 16):
                profile.add(
                    obs(input_gb=size, threads=threads,
                        time=amdahl_time(2.0 * size + 1.0, threads, 0.8))
                )
        predicted = profile.predict(4.0, threads=8)
        assert predicted == pytest.approx(amdahl_time(9.0, 8, 0.8), rel=0.02)

    def test_predict_single_thread_without_c(self):
        profile = StageProfile("gatk", 0)
        profile.add(obs(input_gb=1.0, time=3.0))
        profile.add(obs(input_gb=2.0, time=5.0))
        assert profile.parallel_fraction is None
        assert profile.predict(3.0) == pytest.approx(7.0)
        # Threads requested but no c known: fall back to base time.
        assert profile.predict(3.0, threads=8) == pytest.approx(7.0)

    def test_to_stage_model(self):
        profile = StageProfile("gatk", 2)
        for size in (1.0, 5.0, 9.0):
            for threads in (1, 2, 4, 8):
                profile.add(
                    obs(stage=2, input_gb=size, threads=threads,
                        time=amdahl_time(1.74 * size + 3.93, threads, 0.69))
                )
        model = profile.to_stage_model(name="BaseRecalibrator", ram_gb=4.0)
        assert model.index == 2
        assert model.a == pytest.approx(1.74, abs=0.01)
        assert model.b == pytest.approx(3.93, abs=0.05)
        assert model.c == pytest.approx(0.69, abs=0.02)

    def test_refit_happens_after_new_data(self):
        profile = StageProfile("gatk", 0)
        profile.add(obs(input_gb=1.0, time=2.0))
        profile.add(obs(input_gb=2.0, time=4.0))
        assert profile.linear_fit.slope == pytest.approx(2.0)
        profile.add(obs(input_gb=4.0, time=20.0))  # changes the fit
        assert profile.linear_fit.slope > 2.0


class TestApplicationProfile:
    def test_routes_observations_to_stages(self):
        profile = ApplicationProfile("gatk")
        profile.add(obs(stage=0))
        profile.add(obs(stage=3))
        profile.add(obs(stage=3))
        assert profile.stage_indices == [0, 3]
        assert len(profile) == 3

    def test_wrong_app_rejected(self):
        profile = ApplicationProfile("gatk")
        with pytest.raises(KnowledgeBaseError):
            profile.add(obs(app="bwa"))
