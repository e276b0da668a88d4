"""Tests for cloud tiers and core accounting."""

import pytest

from repro.cloud.infrastructure import CloudTier, Infrastructure
from repro.core.errors import CloudError


class TestCloudTier:
    def test_allocate_and_release(self, env):
        tier = CloudTier(env, "private", 100, 5.0)
        tier.allocate(30)
        assert tier.cores_in_use == 30
        assert tier.cores_free == 70
        tier.release(10)
        assert tier.cores_in_use == 20

    def test_over_allocation_rejected(self, env):
        tier = CloudTier(env, "private", 10, 5.0)
        tier.allocate(10)
        with pytest.raises(CloudError):
            tier.allocate(1)

    def test_over_release_rejected(self, env):
        tier = CloudTier(env, "private", 10, 5.0)
        tier.allocate(5)
        with pytest.raises(CloudError):
            tier.release(6)

    def test_can_allocate(self, env):
        tier = CloudTier(env, "public", 8, 50.0)
        assert tier.can_allocate(8)
        tier.allocate(4)
        assert not tier.can_allocate(5)

    def test_utilization_time_weighted(self, env):
        tier = CloudTier(env, "private", 10, 5.0)

        def proc(env, tier):
            tier.allocate(10)  # 100% for 5 TU
            yield env.timeout(5)
            tier.release(10)  # 0% for 5 TU
            yield env.timeout(5)

        env.process(proc(env, tier))
        env.run()
        assert tier.utilization() == pytest.approx(0.5)

    def test_core_tu_consumed(self, env):
        tier = CloudTier(env, "private", 10, 5.0)

        def proc(env, tier):
            tier.allocate(4)
            yield env.timeout(3)
            tier.release(4)

        env.process(proc(env, tier))
        env.run()
        env.timeout(0)
        assert tier.core_tu_consumed() == pytest.approx(12.0)

    def test_validation(self, env):
        with pytest.raises(CloudError):
            CloudTier(env, "private", -1, 5.0)
        with pytest.raises(CloudError):
            CloudTier(env, "private", 1, -5.0)


class TestInfrastructure:
    @pytest.fixture
    def infra(self, env):
        return Infrastructure(
            env, private_cores=16, private_cost=5.0,
            public_cores=1000, public_cost=50.0,
        )

    def test_paper_defaults(self, env):
        infra = Infrastructure(env)
        assert infra.private.capacity_cores == 624
        assert infra.private.core_cost_per_tu == 5.0
        assert infra.public.core_cost_per_tu == 50.0

    def test_private_first_placement(self, infra):
        assert infra.place(8) == "private"

    def test_public_when_private_full(self, infra):
        infra.allocate(16, "private")
        assert infra.place(8) == "public"

    def test_cost_rate_mixes_tiers(self, infra):
        infra.allocate(10, "private")
        infra.allocate(2, "public")
        assert infra.cost_rate() == pytest.approx(10 * 5.0 + 2 * 50.0)

    def test_accumulated_cost(self, env, infra):
        def proc(env, infra):
            infra.allocate(4, "private")
            infra.allocate(2, "public")
            yield env.timeout(10)
            infra.release(4, "private")
            infra.release(2, "public")

        env.process(proc(env, infra))
        env.run()
        assert infra.accumulated_cost() == pytest.approx(
            4 * 5.0 * 10 + 2 * 50.0 * 10
        )

    def test_total_cores_in_use(self, infra):
        infra.allocate(3, "private")
        infra.allocate(5, "public")
        assert infra.total_cores_in_use() == 8
