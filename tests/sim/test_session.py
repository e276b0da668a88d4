"""Tests for simulation sessions."""

import pytest

from repro.core.bus import EventRecorder
from repro.core.config import (
    AllocationAlgorithm,
    PlatformConfig,
    RewardScheme,
    ScalingAlgorithm,
)
from repro.sim.session import SimulationSession, run_repetitions


def short_config(**workload):
    return PlatformConfig.paper_defaults().with_overrides(
        simulation={"duration": 150.0, "repetitions": 2},
        workload=workload or {"mean_interarrival": 2.5},
    )


class TestSingleRun:
    def test_runs_and_reports(self):
        result = SimulationSession(short_config()).run(seed=1)
        assert result.submitted_runs > 0
        assert result.completed_runs > 0
        assert result.total_cost > 0
        assert result.duration == 150.0
        assert result.seed == 1

    def test_deterministic_given_seed(self):
        config = short_config()
        a = SimulationSession(config).run(seed=7)
        b = SimulationSession(config).run(seed=7)
        assert a.total_reward == b.total_reward
        assert a.total_cost == b.total_cost
        assert a.completed_runs == b.completed_runs

    def test_different_seeds_differ(self):
        config = short_config()
        a = SimulationSession(config).run(seed=1)
        b = SimulationSession(config).run(seed=2)
        assert a.total_reward != b.total_reward

    def test_busier_workload_more_jobs(self):
        busy = SimulationSession(short_config(mean_interarrival=2.0)).run(seed=3)
        quiet = SimulationSession(short_config(mean_interarrival=3.0)).run(seed=3)
        assert busy.submitted_runs > quiet.submitted_runs

    def test_all_allocation_algorithms_run(self):
        for algorithm in AllocationAlgorithm:
            config = short_config().with_overrides(
                scheduler={"allocation": algorithm}
            )
            result = SimulationSession(config).run(seed=1)
            assert result.completed_runs > 0, algorithm

    def test_all_scaling_algorithms_run(self):
        for algorithm in ScalingAlgorithm:
            config = short_config().with_overrides(
                scheduler={"scaling": algorithm}
            )
            result = SimulationSession(config).run(seed=1)
            assert result.completed_runs > 0, algorithm

    def test_throughput_scheme_runs(self):
        config = short_config().with_overrides(
            reward={"scheme": RewardScheme.THROUGHPUT}
        )
        result = SimulationSession(config).run(seed=1)
        assert result.total_reward > 0  # 1/t rewards are always positive

    def test_best_constant_plan_precomputed(self):
        config = short_config().with_overrides(
            scheduler={"allocation": AllocationAlgorithm.BEST_CONSTANT}
        )
        session = SimulationSession(config)
        assert session._constant_plan is not None
        assert len(session._constant_plan.threads) == 7

    def test_event_capture_optional(self):
        """A record of the run is an observer; keeping one never changes
        the result."""
        recorder = EventRecorder()
        captured = SimulationSession(
            short_config(), observers=[lambda bus, p: recorder.attach(bus)]
        ).run(seed=1)
        assert len(recorder) > 0
        assert SimulationSession(short_config()).run(seed=1) == captured


class TestRepetitions:
    def test_repetition_count_honoured(self):
        results = run_repetitions(short_config(), repetitions=3)
        assert len(results) == 3
        assert [r.seed for r in results] == [0, 1, 2]

    def test_config_repetitions_default(self):
        results = run_repetitions(short_config())
        assert len(results) == 2  # short_config sets repetitions=2

    def test_common_random_numbers_across_configs(self):
        """Same base seed -> per-repetition arrivals match across configs."""
        never = run_repetitions(
            short_config().with_overrides(
                scheduler={"scaling": ScalingAlgorithm.NEVER}
            ),
            repetitions=2,
            base_seed=100,
        )
        always = run_repetitions(
            short_config().with_overrides(
                scheduler={"scaling": ScalingAlgorithm.ALWAYS}
            ),
            repetitions=2,
            base_seed=100,
        )
        for n, a in zip(never, always):
            assert n.submitted_runs == a.submitted_runs

    def test_bad_repetitions_rejected(self):
        with pytest.raises(ValueError):
            run_repetitions(short_config(), repetitions=0)


class TestWarmup:
    def test_warmup_excludes_transient(self):
        full = SimulationSession(
            short_config().with_overrides(simulation={"warmup": 0.0})
        ).run(seed=21)
        warmed = SimulationSession(
            short_config().with_overrides(simulation={"warmup": 75.0})
        ).run(seed=21)
        # The warmed session reports a strict subset of the activity.
        assert warmed.completed_runs < full.completed_runs
        assert warmed.total_cost < full.total_cost
        assert warmed.submitted_runs < full.submitted_runs

    def test_warmup_cost_is_post_boundary_core_time(self):
        config = short_config().with_overrides(simulation={"warmup": 75.0})
        result = SimulationSession(config).run(seed=22)
        expected = (
            result.private_core_tu * config.cloud.private_core_cost
            + result.public_core_tu * config.cloud.public_core_cost
        )
        assert result.total_cost == pytest.approx(expected)

    def test_zero_warmup_is_identity(self):
        a = SimulationSession(short_config()).run(seed=23)
        b = SimulationSession(
            short_config().with_overrides(simulation={"warmup": 0.0})
        ).run(seed=23)
        assert a.total_reward == b.total_reward
        assert a.completed_runs == b.completed_runs
