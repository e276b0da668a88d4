"""Tests for the CELAR elasticity middleware stand-in."""

import pytest

from repro.cloud.celar import CelarManager
from repro.cloud.infrastructure import Infrastructure
from repro.core.errors import CloudError


@pytest.fixture
def infra(env):
    return Infrastructure(env, private_cores=64, public_cores=1000)


@pytest.fixture
def celar(env, infra):
    return CelarManager(env, infra, startup_penalty_tu=0.5)


class TestManager:
    def test_fit_size_rounds_up(self, celar):
        assert celar.fit_size(1) == 1
        assert celar.fit_size(3) == 4
        assert celar.fit_size(9) == 16
        assert celar.fit_size(16) == 16

    def test_fit_size_too_big_rejected(self, celar):
        with pytest.raises(CloudError):
            celar.fit_size(17)

    def test_deploy_claims_cores_synchronously(self, env, celar, infra):
        vm = celar.deploy(8, "private")
        assert infra.private.cores_in_use == 8  # before any boot
        assert vm.cores == 8

    def test_deploy_rejects_non_catalog_size(self, celar):
        with pytest.raises(CloudError):
            celar.deploy(3, "private")

    def test_resize_through_catalog_only(self, env, celar):
        vm = celar.deploy(4, "private")
        env.run(until=vm.begin_boot())
        vm.finish_boot()
        with pytest.raises(CloudError):
            celar.begin_resize(vm, 5)
        celar.begin_resize(vm, 8)
        assert vm.cores == 8

    def test_empty_catalog_rejected(self, env, infra):
        with pytest.raises(CloudError):
            CelarManager(env, infra, allowed_sizes=())

    def test_negative_startup_penalty_rejected(self, env, infra):
        # Rejected at construction, not at the first deploy's VM.
        with pytest.raises(CloudError):
            CelarManager(env, infra, startup_penalty_tu=-1.0)


class TestRamAwareSizing:
    def test_instance_ram_scales_with_cores(self, celar):
        # 4 GB/core (64 GB across 16 cores, Section IV-A).
        assert celar.instance_ram_gb(1) == 4.0
        assert celar.instance_ram_gb(16) == 64.0

    def test_memory_hungry_stage_forces_bigger_instance(self, celar):
        # 1 thread but 8 GB of RAM -> a 2-core instance at 4 GB/core.
        assert celar.fit_size(1, ram_gb=8.0) == 2
        # 1 thread, 20 GB -> 8-core instance (32 GB).
        assert celar.fit_size(1, ram_gb=20.0) == 8

    def test_cores_dominate_when_memory_is_small(self, celar):
        assert celar.fit_size(8, ram_gb=4.0) == 8

    def test_impossible_memory_rejected(self, celar):
        with pytest.raises(CloudError):
            celar.fit_size(1, ram_gb=100.0)  # > 64 GB max

    def test_custom_ram_per_core(self, env, infra):
        fat = CelarManager(env, infra, ram_per_core_gb=16.0)
        assert fat.fit_size(1, ram_gb=16.0) == 1

    def test_bad_ram_per_core_rejected(self, env, infra):
        with pytest.raises(CloudError):
            CelarManager(env, infra, ram_per_core_gb=0.0)
