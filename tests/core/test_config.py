"""Tests for the configuration dataclasses (Tables I and III)."""

import math

import pytest

from repro.core.config import (
    AllocationAlgorithm,
    BrokerConfig,
    CloudConfig,
    PlatformConfig,
    RewardConfig,
    RewardScheme,
    ScalingAlgorithm,
    SchedulerConfig,
    SimulationConfig,
    TierConfig,
    WorkloadConfig,
)
from repro.core.errors import ConfigurationError


class TestTable3Defaults:
    """Every Table III constant must be the library default."""

    def test_simulation_duration(self):
        assert SimulationConfig().duration == 10_000.0

    def test_private_tier(self):
        cloud = CloudConfig()
        assert cloud.private_core_cost == 5.0
        assert cloud.private_cores == 624  # Section IV-A

    def test_reward_constants(self):
        reward = RewardConfig()
        assert reward.rmax == 400.0
        assert reward.rpenalty == 15.0
        assert reward.rscale == 15_000.0

    def test_instance_sizes(self):
        assert CloudConfig().instance_sizes == (1, 2, 4, 8, 16)

    def test_workload_moments(self):
        w = WorkloadConfig()
        assert w.jobs_per_arrival_mean == 3.0
        assert w.jobs_per_arrival_var == 2.0
        assert w.job_size_mean == 5.0
        assert w.job_size_var == 1.0

    def test_repetitions_default_ten(self):
        assert SimulationConfig().repetitions == 10

    def test_paper_defaults_validate(self):
        PlatformConfig.paper_defaults()


class TestValidation:
    def test_bad_reward(self):
        with pytest.raises(ConfigurationError):
            RewardConfig(rmax=0.0).validate()
        with pytest.raises(ConfigurationError):
            RewardConfig(rpenalty=-1.0).validate()

    def test_bad_cloud(self):
        with pytest.raises(ConfigurationError):
            CloudConfig(private_cores=-1).validate()
        with pytest.raises(ConfigurationError):
            CloudConfig(instance_sizes=()).validate()
        with pytest.raises(ConfigurationError):
            CloudConfig(instance_sizes=(4, 2, 1)).validate()
        with pytest.raises(ConfigurationError):
            CloudConfig(startup_penalty_tu=-0.5).validate()

    def test_bad_workload(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(mean_interarrival=0.0).validate()
        with pytest.raises(ConfigurationError):
            WorkloadConfig(size_unit_gb=0.0).validate()
        with pytest.raises(ConfigurationError):
            WorkloadConfig(job_size_var=-1.0).validate()

    def test_bad_scheduler(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(eqt_alpha=0.0).validate()
        with pytest.raises(ConfigurationError):
            SchedulerConfig(predictive_horizon=0.0).validate()
        with pytest.raises(ConfigurationError):
            SchedulerConfig(thread_choices=(0,)).validate()
        with pytest.raises(ConfigurationError):
            SchedulerConfig(idle_timeout_tu=-1.0).validate()

    def test_bad_broker(self):
        with pytest.raises(ConfigurationError):
            BrokerConfig(default_shard_gb=0.0).validate()
        with pytest.raises(ConfigurationError):
            BrokerConfig(min_shard_gb=5.0, default_shard_gb=2.0).validate()

    def test_bad_simulation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(duration=0.0).validate()
        with pytest.raises(ConfigurationError):
            SimulationConfig(warmup=20_000.0).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "section, name",
        [
            (SimulationConfig, "duration"),
            (SimulationConfig, "warmup"),
            (WorkloadConfig, "mean_interarrival"),
            (WorkloadConfig, "size_unit_gb"),
            (WorkloadConfig, "jobs_per_arrival_mean"),
            (WorkloadConfig, "job_size_mean"),
            (WorkloadConfig, "jobs_per_arrival_var"),
            (WorkloadConfig, "job_size_var"),
        ],
    )
    def test_non_finite_rejected(self, section, name, value):
        # NaN and +inf pass a ``<= 0`` check; each must name its field.
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            section(**{name: value}).validate()

    def test_platform_validates_recursively(self):
        config = PlatformConfig(reward=RewardConfig(rmax=-1.0))
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_empty_application_rejected(self):
        with pytest.raises(ConfigurationError):
            PlatformConfig(application="").validate()


class TestOverrides:
    def test_with_overrides_section_fields(self):
        base = PlatformConfig.paper_defaults()
        updated = base.with_overrides(
            workload={"mean_interarrival": 2.0},
            scheduler={"scaling": ScalingAlgorithm.ALWAYS},
        )
        assert updated.workload.mean_interarrival == 2.0
        assert updated.scheduler.scaling is ScalingAlgorithm.ALWAYS
        # Original untouched; unrelated fields preserved.
        assert base.workload.mean_interarrival == 2.5
        assert updated.workload.job_size_mean == 5.0

    def test_with_overrides_whole_section(self):
        base = PlatformConfig.paper_defaults()
        updated = base.with_overrides(reward=RewardConfig(scheme=RewardScheme.THROUGHPUT))
        assert updated.reward.scheme is RewardScheme.THROUGHPUT

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError):
            PlatformConfig().with_overrides(bogus={"x": 1})

    def test_with_overrides_coerces_like_from_dict(self):
        # Dict-shaped tier lists and raw enum names take the same
        # coercion path as from_dict, so the result serializes and
        # compares equal to a config built from TierConfig objects.
        base = PlatformConfig.paper_defaults()
        from_dicts = base.with_overrides(
            cloud={"tiers": [
                {"name": "private", "backend": "reserved",
                 "capacity_cores": 624, "core_cost_per_tu": 5.0},
                {"name": "public", "backend": "on_demand",
                 "capacity_cores": 1_000_000, "core_cost_per_tu": 50.0},
            ]},
            scheduler={"scaling": "always"},
        )
        assert all(isinstance(t, TierConfig) for t in from_dicts.cloud.tiers)
        assert from_dicts.scheduler.scaling is ScalingAlgorithm.ALWAYS
        from_objects = base.with_overrides(
            cloud={"tiers": [
                TierConfig(name="private", backend="reserved",
                           capacity_cores=624, core_cost_per_tu=5.0),
                TierConfig(name="public", backend="on_demand",
                           capacity_cores=1_000_000, core_cost_per_tu=50.0),
            ]},
            scheduler={"scaling": ScalingAlgorithm.ALWAYS},
        )
        assert from_dicts == from_objects
        assert PlatformConfig.from_json(from_dicts.to_json()) == from_dicts

    def test_with_overrides_rejects_unknown_tier_keys(self):
        with pytest.raises(ConfigurationError, match="cloud.tiers"):
            PlatformConfig().with_overrides(
                cloud={"tiers": [{"name": "x", "bogus": 1}]}
            )


class TestEnums:
    def test_table1_enumerations_complete(self):
        # The four Table I algorithms plus the 'learned' extension
        # (paper Section VI future work).
        assert {a.value for a in AllocationAlgorithm} == {
            "greedy", "long_term", "long_term_adaptive", "best_constant",
            "learned",
        }
        assert {s.value for s in ScalingAlgorithm} == {
            "always", "never", "predictive",
        }
        assert {r.value for r in RewardScheme} == {"time", "throughput"}


class TestWorkflowField:
    def test_defaults_to_empty(self):
        assert PlatformConfig.paper_defaults().workflow == ""

    def test_override_and_round_trip(self):
        config = PlatformConfig.paper_defaults().with_overrides(
            workflow="star_fanout"
        )
        assert config.workflow == "star_fanout"
        back = PlatformConfig.from_dict(config.to_dict())
        assert back == config
        assert back.workflow == "star_fanout"

    def test_empty_workflow_omitted_from_dict(self):
        # Pre-DAG config dumps must keep loading AND pre-DAG dumps must be
        # reproducible: an unset workflow leaves no trace in the JSON.
        assert "workflow" not in PlatformConfig.paper_defaults().to_dict()


class TestSparseWorkloadFields:
    def test_defaults_omitted_from_dict(self):
        d = PlatformConfig.paper_defaults().to_dict()
        assert "arrival_process" not in d["workload"]
        assert "arrival_trace" not in d["workload"]
