"""Tests for the paper's reward functions (Section II-D)."""

import pytest

from repro.core.config import RewardConfig, RewardScheme
from repro.scheduler.rewards import ThroughputReward, TimeReward, make_reward


class TestTimeReward:
    def test_paper_formula(self):
        r = TimeReward(rmax=400.0, rpenalty=15.0)
        # R(d, t) = d (Rmax - t Rpenalty).
        assert r(10.0, 5.0) == pytest.approx(5.0 * (400.0 - 150.0))

    def test_reward_proportional_to_size(self):
        r = TimeReward()
        assert r(10.0, 4.0) == pytest.approx(2 * r(10.0, 2.0))

    def test_can_go_negative_for_late_work(self):
        """Figure 4 shows negative mean profits: the time reward is not
        clamped at zero."""
        r = TimeReward(rmax=400.0, rpenalty=15.0)
        assert r(100.0, 5.0) < 0.0

    def test_marginal_value_constant(self):
        r = TimeReward(rmax=400.0, rpenalty=15.0)
        assert r.marginal_value(1.0, 5.0) == pytest.approx(75.0)
        assert r.marginal_value(99.0, 5.0) == pytest.approx(75.0)

    def test_marginal_value_matches_finite_difference(self):
        r = TimeReward()
        eps = 1e-6
        fd = (r(10.0, 5.0) - r(10.0 + eps, 5.0)) / eps
        assert r.marginal_value(10.0, 5.0) == pytest.approx(fd, rel=1e-4)

    def test_breakeven_latency(self):
        r = TimeReward(rmax=400.0, rpenalty=15.0)
        assert r(400.0 / 15.0, 7.0) == pytest.approx(0.0, abs=1e-9)

    def test_zero_penalty_never_breaks_even(self):
        r = TimeReward(rpenalty=0.0)
        assert r(1e9, 7.0) == r(0.0, 7.0) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeReward(rmax=0.0)
        with pytest.raises(ValueError):
            TimeReward(rpenalty=-1.0)
        r = TimeReward()
        with pytest.raises(ValueError):
            r(-1.0, 5.0)


class TestThroughputReward:
    def test_paper_formula(self):
        r = ThroughputReward(rscale=15_000.0)
        # R(d, t) = d Rscale / t.
        assert r(30.0, 5.0) == pytest.approx(5.0 * 15_000.0 / 30.0)

    def test_inverse_proportionality(self):
        r = ThroughputReward()
        assert r(10.0, 5.0) == pytest.approx(2 * r(20.0, 5.0))

    def test_never_negative(self):
        r = ThroughputReward()
        assert r(1e9, 5.0) > 0.0

    def test_zero_latency_clamped(self):
        r = ThroughputReward()
        assert r(0.0, 5.0) == r(ThroughputReward.MIN_LATENCY, 5.0)

    def test_marginal_value_decreases_with_latency(self):
        r = ThroughputReward()
        assert r.marginal_value(10.0, 5.0) > r.marginal_value(50.0, 5.0)

    def test_marginal_value_matches_finite_difference(self):
        r = ThroughputReward()
        eps = 1e-6
        fd = (r(25.0, 5.0) - r(25.0 + eps, 5.0)) / eps
        assert r.marginal_value(25.0, 5.0) == pytest.approx(fd, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThroughputReward(rscale=0)


class TestFactory:
    def test_time_scheme(self):
        r = make_reward(RewardConfig(scheme=RewardScheme.TIME))
        assert isinstance(r, TimeReward)
        assert r.rmax == 400.0 and r.rpenalty == 15.0  # Table III

    def test_throughput_scheme(self):
        r = make_reward(RewardConfig(scheme=RewardScheme.THROUGHPUT))
        assert isinstance(r, ThroughputReward)
        assert r.rscale == 15_000.0  # Table III
