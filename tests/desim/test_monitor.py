"""Tests for instrumentation monitors."""

import math

import pytest

from repro.desim.monitor import Monitor, TimeWeightedMonitor


class TestMonitor:
    def test_empty_monitor_stats(self):
        m = Monitor()
        assert len(m) == 0
        assert math.isnan(m.mean())
        assert m.total() == 0.0

    def test_observations_must_be_time_ordered(self):
        m = Monitor()
        m.observe(5.0, 1.0)
        with pytest.raises(ValueError):
            m.observe(4.0, 2.0)

    def test_summary_statistics(self):
        m = Monitor()
        for t, v in [(0, 2.0), (1, 4.0), (2, 6.0)]:
            m.observe(t, v)
        assert m.mean() == 4.0
        assert m.total() == 12.0
        assert m.min() == 2.0
        assert m.max() == 6.0
        assert m.std() == pytest.approx(2.0)

    def test_single_observation_std_is_zero(self):
        m = Monitor()
        m.observe(0, 5.0)
        assert m.std() == 0.0

    def test_window_slices_halfopen(self):
        m = Monitor()
        for t in range(5):
            m.observe(float(t), float(t))
        w = m.window(1.0, 3.0)
        assert list(w.values) == [1.0, 2.0]

    def test_percentile(self):
        m = Monitor()
        for t, v in enumerate(range(101)):
            m.observe(float(t), float(v))
        assert m.percentile(50) == 50.0

    def test_summary_includes_percentiles(self):
        m = Monitor()
        for t, v in enumerate(range(101)):
            m.observe(float(t), float(v))
        summary = m.summary()
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0
        assert summary["count"] == 101

    def test_empty_summary_percentiles_are_nan(self):
        summary = Monitor().summary()
        for key in ("p50", "p95", "p99"):
            assert math.isnan(summary[key])


class TestTimeWeightedMonitor:
    def test_time_average_piecewise_constant(self):
        m = TimeWeightedMonitor(initial=0.0)
        m.set_level(10.0, 4.0)  # level 0 for 10 TU
        m.set_level(20.0, 0.0)  # level 4 for 10 TU
        assert m.time_average() == pytest.approx(2.0)

    def test_time_average_extends_to_until(self):
        m = TimeWeightedMonitor(initial=2.0)
        m.set_level(10.0, 0.0)
        # 2.0 for 10 TU then 0 for 10 TU
        assert m.time_average(until=20.0) == pytest.approx(1.0)

    def test_integral_accumulates_area(self):
        m = TimeWeightedMonitor(initial=3.0)
        m.set_level(4.0, 5.0)
        assert m.integral() == pytest.approx(12.0)
        assert m.integral(until=6.0) == pytest.approx(22.0)

    def test_add_is_relative(self):
        m = TimeWeightedMonitor(initial=1.0)
        m.add(2.0, +3.0)
        assert m.level == 4.0
        m.add(3.0, -1.0)
        assert m.level == 3.0

    def test_peak_tracked(self):
        m = TimeWeightedMonitor(initial=0.0)
        m.set_level(1.0, 7.0)
        m.set_level(2.0, 3.0)
        assert m.peak == 7.0

    def test_backwards_time_rejected(self):
        m = TimeWeightedMonitor(start_time=5.0)
        with pytest.raises(ValueError):
            m.set_level(4.0, 1.0)
        with pytest.raises(ValueError):
            m.time_average(until=4.0)

    def test_no_elapsed_time_returns_current_level(self):
        m = TimeWeightedMonitor(initial=9.0)
        assert m.time_average() == 9.0

