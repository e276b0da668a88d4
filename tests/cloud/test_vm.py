"""Tests for VM lifecycle and the startup/resize penalty."""

import pytest

from repro.cloud.infrastructure import Infrastructure
from repro.cloud.vm import VirtualMachine, VMState
from repro.core.errors import CloudError


@pytest.fixture
def infra(env):
    return Infrastructure(env, private_cores=32, public_cores=100)


def boot(env, vm):
    """Run a boot to its end: BOOTING for the startup penalty, then READY."""
    env.run(until=env.now + vm.begin_boot())
    vm.finish_boot()


class TestLifecycle:
    def test_hire_allocates_cores_immediately(self, env, infra):
        vm = VirtualMachine(env, infra, cores=8, tier="private")
        assert infra.private.cores_in_use == 8
        assert vm.state is VMState.BOOTING

    def test_boot_takes_penalty(self, env, infra):
        vm = VirtualMachine(
            env, infra, cores=4, tier="private", startup_penalty_tu=0.5
        )
        boot(env, vm)
        assert env.now == pytest.approx(0.5)
        assert vm.state is VMState.READY
        assert vm.boot_count == 1

    def test_zero_penalty_boot_immediate(self, env, infra):
        vm = VirtualMachine(
            env, infra, cores=4, tier="private", startup_penalty_tu=0.0
        )
        boot(env, vm)
        assert env.now == 0.0
        assert vm.state is VMState.READY

    def test_busy_idle_transitions(self, env, infra):
        vm = VirtualMachine(env, infra, cores=4, tier="private")
        boot(env, vm)
        vm.mark_busy()
        assert vm.state is VMState.BUSY
        vm.mark_idle()
        assert vm.state is VMState.READY

    def test_busy_requires_ready(self, env, infra):
        vm = VirtualMachine(env, infra, cores=4, tier="private")
        with pytest.raises(CloudError):
            vm.mark_busy()  # still BOOTING

    def test_terminate_releases_cores(self, env, infra):
        vm = VirtualMachine(env, infra, cores=8, tier="private")
        vm.terminate()
        assert infra.private.cores_in_use == 0
        assert vm.state is VMState.TERMINATED
        vm.terminate()  # idempotent

    def test_boot_after_terminate_rejected(self, env, infra):
        vm = VirtualMachine(env, infra, cores=4, tier="private")
        vm.terminate()
        with pytest.raises(CloudError):
            vm.begin_boot()
        assert vm.boot_count == 0

    def test_terminated_mid_boot_stays_terminated(self, env, infra):
        vm = VirtualMachine(env, infra, cores=4, tier="private")
        vm.begin_boot()
        vm.terminate()
        vm.finish_boot()
        assert vm.state is VMState.TERMINATED

    def test_minimum_core_count(self, env, infra):
        with pytest.raises(CloudError):
            VirtualMachine(env, infra, cores=0, tier="private")


class TestResize:
    def test_reshape_settles_core_delta(self, env, infra):
        vm = VirtualMachine(env, infra, cores=4, tier="private")
        vm.reshape(16)
        assert infra.private.cores_in_use == 16
        vm.reshape(2)
        assert infra.private.cores_in_use == 2

    def test_reshape_beyond_tier_rejected(self, env, infra):
        vm = VirtualMachine(env, infra, cores=30, tier="private")
        with pytest.raises(CloudError):
            vm.reshape(64)  # private has only 32


class TestCostAccounting:
    def test_lifetime_and_cost(self, env, infra):
        vm = VirtualMachine(env, infra, cores=4, tier="public")

        def killer(env, vm):
            yield env.timeout(10)
            vm.terminate()

        env.process(killer(env, vm))
        env.run()
        assert vm.lifetime() == pytest.approx(10.0)
        assert vm.accumulated_cost() == pytest.approx(4 * 50.0 * 10)

    def test_core_cost_per_tu(self, env, infra):
        vm = VirtualMachine(env, infra, cores=2, tier="private")
        assert vm.core_cost_per_tu == pytest.approx(10.0)
