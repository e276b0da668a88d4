"""Named deployment presets."""

import pytest

from repro.core.config import PlatformConfig, RewardScheme
from repro.core.errors import ConfigurationError
from repro.core.presets import PRESETS, make_preset, preset_names


class TestPresets:
    def test_builtin_names(self):
        assert preset_names() == [
            "busy", "chaos", "drift", "fanout", "observed", "overnight",
            "paper", "serverless_burst", "smoke", "spot_saver", "throughput",
        ]

    @pytest.mark.parametrize("name", PRESETS.names())
    def test_every_preset_is_valid(self, name):
        cfg = make_preset(name)
        assert isinstance(cfg, PlatformConfig)
        cfg.validate()

    def test_paper_is_table_iii(self):
        assert make_preset("paper") == PlatformConfig.paper_defaults()

    def test_presets_differ_where_promised(self):
        assert make_preset("smoke").simulation.duration == 120.0
        assert make_preset("busy").workload.mean_interarrival == 2.0
        assert make_preset("throughput").reward.scheme is RewardScheme.THROUGHPUT
        assert make_preset("chaos").faults.mtbf_tu == 40.0
        assert make_preset("observed").telemetry.enabled
        drift = make_preset("drift")
        assert drift.knowledge.model_drift == 0.5
        assert drift.reward.scheme is RewardScheme.THROUGHPUT
        assert make_preset("fanout").workflow == "star_fanout"

    def test_unknown_preset_lists_registered(self):
        with pytest.raises(ConfigurationError, match="smoke"):
            make_preset("missing")

    def test_out_of_tree_preset_registration(self, monkeypatch):
        # Register into a copy of the global table, restored afterwards.
        monkeypatch.setattr(PRESETS, "_factories", dict(PRESETS._factories))

        @PRESETS.register("test-tiny")
        def _tiny():
            return PlatformConfig.paper_defaults().with_overrides(
                simulation={"duration": 50.0}
            )

        assert make_preset("test-tiny").simulation.duration == 50.0
