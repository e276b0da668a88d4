"""Tests for the chaos layer: FaultPlan validation + FaultInjector streams."""

import pytest

from repro.cloud.faults import FaultInjector, FaultPlan
from repro.core.config import CloudConfig, FaultConfig
from repro.core.errors import CloudError
from repro.desim.rng import RandomStreams


class TestFaultPlan:
    def test_defaults_are_inert(self):
        plan = FaultPlan()
        assert not plan.any_active

    def test_validation(self):
        with pytest.raises(CloudError):
            FaultPlan(mtbf_tu=0.0)
        with pytest.raises(CloudError):
            FaultPlan(public_mtbf_tu=-5.0)
        with pytest.raises(CloudError):
            FaultPlan(p_deploy_fail=1.5)
        with pytest.raises(CloudError):
            FaultPlan(p_corrupt=-0.1)
        with pytest.raises(CloudError):
            FaultPlan(p_deploy_fail_public=2.0)
        with pytest.raises(CloudError):
            FaultPlan(p_straggler=0.1, straggler_alpha=1.0)
        with pytest.raises(CloudError):
            FaultPlan(p_straggler=0.1, straggler_min_factor=0.5)

    def test_any_active_per_stream(self):
        assert FaultPlan(mtbf_tu=50.0).any_active
        assert FaultPlan(p_boot_fail=0.1).any_active
        assert FaultPlan(p_deploy_fail=0.1).any_active
        assert FaultPlan(p_deploy_fail_public=0.1).any_active
        assert FaultPlan(p_straggler=0.1).any_active
        assert FaultPlan(p_corrupt=0.1).any_active

    def test_deploy_probability_tier_override(self):
        plan = FaultPlan(p_deploy_fail=0.1, p_deploy_fail_public=0.4)
        assert plan.deploy_fail_probability("private") == 0.1
        assert plan.deploy_fail_probability("public") == 0.4
        # Without the override the public tier inherits the base rate.
        plan = FaultPlan(p_deploy_fail=0.1)
        assert plan.deploy_fail_probability("public") == 0.1

    def test_from_config_fault_section_wins(self):
        faults = FaultConfig(mtbf_tu=30.0)
        cloud = CloudConfig(vm_mtbf_tu=100.0)
        assert FaultPlan.from_config(faults, cloud).mtbf_tu == 30.0

    def test_from_config_falls_back_to_legacy_knob(self):
        faults = FaultConfig()
        cloud = CloudConfig(vm_mtbf_tu=100.0)
        assert FaultPlan.from_config(faults, cloud).mtbf_tu == 100.0
        assert FaultPlan.from_config(faults).mtbf_tu is None


class TestFaultInjector:
    def test_probabilistic_streams_need_randomstreams(self):
        with pytest.raises(CloudError):
            FaultInjector(FaultPlan(p_corrupt=0.5))
        with pytest.raises(CloudError):
            FaultInjector(FaultPlan(mtbf_tu=50.0))

    def test_crash_stream_is_the_seed_failures_stream(self):
        """Crash lifetimes are exponential draws on the ``"failures"`` stream."""
        reference = RandomStreams(7).stream("failures")
        injector = FaultInjector(FaultPlan(mtbf_tu=40.0), RandomStreams(7))
        assert injector.crashes_enabled
        for _ in range(50):
            assert injector.draw_lifetime("public") == float(
                reference.exponential(40.0)
            )

    def test_draw_lifetime_requires_crashes(self):
        injector = FaultInjector(FaultPlan(p_corrupt=0.5), RandomStreams(1))
        assert not injector.crashes_enabled
        with pytest.raises(CloudError):
            injector.draw_lifetime("private")

    def test_zero_probability_never_draws(self):
        """p = 0 must not consume RNG state (bit-identity requirement)."""
        streams = RandomStreams(5)
        injector = FaultInjector(FaultPlan(p_straggler=0.5), streams)
        for _ in range(100):
            assert not injector.corrupts()
            assert not injector.boot_fails("private")
            assert not injector.deploy_fails("public")
        # The disabled streams were never advanced: their next draw equals
        # a fresh stream's first draw.
        for name in ("faults.corrupt", "faults.boot", "faults.deploy"):
            assert streams.stream(name).random() == pytest.approx(
                RandomStreams(5).stream(name).random()
            )
        assert injector.corruptions_injected == 0
        assert injector.boot_failures_injected == 0
        assert injector.deploy_failures_injected == 0

    def test_streams_are_independent_per_fault_class(self):
        """Enabling one fault class never perturbs another's draws."""
        solo = FaultInjector(FaultPlan(p_straggler=0.3), RandomStreams(11))
        mixed = FaultInjector(
            FaultPlan(p_straggler=0.3, p_corrupt=0.5, p_deploy_fail=0.5),
            RandomStreams(11),
        )
        for _ in range(200):
            a = solo.straggler_multiplier()
            # Interleave other-stream draws; the straggler stream must not
            # notice.
            mixed.corrupts()
            mixed.deploy_fails("private")
            b = mixed.straggler_multiplier()
            assert a == pytest.approx(b)

    def test_straggler_multiplier_floor_and_counters(self):
        injector = FaultInjector(
            FaultPlan(p_straggler=1.0, straggler_min_factor=2.0),
            RandomStreams(2),
        )
        for _ in range(100):
            assert injector.straggler_multiplier() >= 2.0
        assert injector.stragglers_injected == 100

    def test_healthy_task_multiplier_is_one(self):
        injector = FaultInjector(FaultPlan(), RandomStreams(2))
        assert injector.straggler_multiplier() == 1.0
        assert injector.stragglers_injected == 0

    def test_injection_counters_track_hits(self):
        injector = FaultInjector(
            FaultPlan(p_boot_fail=1.0, p_deploy_fail=1.0, p_corrupt=1.0),
            RandomStreams(4),
        )
        assert injector.boot_fails("private")
        assert injector.deploy_fails("public")
        assert injector.corrupts()
        assert injector.boot_failures_injected == 1
        assert injector.deploy_failures_injected == 1
        assert injector.corruptions_injected == 1
