"""Tests for the metrics registry and Prometheus exposition."""

import math

import pytest

from repro.desim.monitor import Monitor
from repro.telemetry.metrics import MetricsRegistry, absorb_monitor


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        c = registry.counter("jobs_total", "jobs", labelnames=("tier",))
        c.inc(tier="private")
        c.inc(2, tier="private")
        c.inc(tier="public")
        assert c.value(tier="private") == 3
        assert c.value(tier="public") == 1

    def test_decrease_rejected(self):
        c = MetricsRegistry().counter("n")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_wrong_labels_rejected(self):
        c = MetricsRegistry().counter("n", labelnames=("tier",))
        with pytest.raises(ValueError):
            c.inc(stage="1")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5.0)
        g.inc(2.0)
        g.inc(-3.0)
        assert g.value() == 4.0


class TestHistogram:
    def test_cumulative_buckets_and_sum(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 0.7, 3.0, 20.0):
            h.observe(v)
        samples = {(name, labels.get("le")): value for name, labels, value in h.samples()}
        assert samples[("scan_lat_bucket", "1")] == 2
        assert samples[("scan_lat_bucket", "5")] == 3
        assert samples[("scan_lat_bucket", "10")] == 3
        assert samples[("scan_lat_bucket", "+Inf")] == 4
        assert samples[("scan_lat_count", None)] == 4
        assert samples[("scan_lat_sum", None)] == pytest.approx(24.2)

    def test_nan_observations_ignored(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0,))
        h.observe(float("nan"))
        assert h.count() == 0

    def test_bad_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("a", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("b", buckets=(5.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("c", buckets=(1.0, math.inf))


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x", labelnames=("t",))
        b = registry.counter("x", labelnames=("t",))
        assert a is b
        assert len(registry) == 1

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("1bad name")

    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("hires_total", "hires", labelnames=("tier",)).inc(
            tier="private"
        )
        registry.gauge("util", "utilisation").set(0.25)
        text = registry.expose()
        assert "# TYPE scan_hires_total counter" in text
        assert '# HELP scan_hires_total hires' in text
        assert 'scan_hires_total{tier="private"} 1' in text
        assert "scan_util 0.25" in text
        assert text.endswith("\n")

    def test_write(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        path = tmp_path / "metrics.prom"
        registry.write(str(path))
        assert "scan_g 1" in path.read_text()

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", labelnames=("name",))
        gauge.set(1.0, name='a"b\\c\nd')
        line = next(
            ln for ln in registry.expose().splitlines() if ln.startswith("scan_g{")
        )
        assert '\\"' in line and "\\\\" in line and "\\n" in line


class TestAdapters:
    def test_absorb_monitor_exports_percentiles(self):
        monitor = Monitor("lat")
        for i in range(100):
            monitor.observe(float(i), float(i))
        registry = MetricsRegistry()
        absorb_monitor(registry, monitor, "lat")
        gauge = registry.get("lat")
        assert gauge.value(stat="count") == 100
        assert gauge.value(stat="p95") == pytest.approx(94.05)
