"""Tests for the tiered cost function."""

import pytest

from repro.cloud.infrastructure import Infrastructure
from repro.scheduler.costs import TieredCostFunction


@pytest.fixture
def costs(env):
    infra = Infrastructure(
        env, private_cores=16, private_cost=5.0,
        public_cores=1000, public_cost=50.0,
    )
    return TieredCostFunction(infra)


class TestMarginalCost:
    def test_private_while_room(self, costs):
        assert costs.marginal_core_cost(8) == 5.0

    def test_public_once_private_full(self, costs):
        costs.infrastructure.allocate(16, "private")
        assert costs.marginal_core_cost(1) == 50.0

    def test_public_quoted_when_both_full(self, env):
        infra = Infrastructure(env, private_cores=1, public_cores=1)
        infra.allocate(1, "private")
        infra.allocate(1, "public")
        assert TieredCostFunction(infra).marginal_core_cost(1) == 50.0


class TestPublicPremium:
    def test_premium_is_price_difference_plus_boot(self, costs):
        premium = costs.premium(2, 10.0, startup_penalty_tu=0.5)
        expected = 2 * ((50.0 - 5.0) * 10.0 + 50.0 * 0.5)
        assert premium == pytest.approx(expected)

    def test_zero_premium_when_prices_equal(self, env):
        infra = Infrastructure(
            env, private_cores=4, private_cost=20.0,
            public_cores=10, public_cost=20.0,
        )
        costs = TieredCostFunction(infra)
        assert costs.premium(1, 5.0) == pytest.approx(0.0)


class TestCurrentRate:
    def test_tracks_live_allocations(self, costs):
        costs.infrastructure.allocate(4, "private")
        costs.infrastructure.allocate(1, "public")
        assert costs.infrastructure.cost_rate() == pytest.approx(4 * 5.0 + 50.0)
