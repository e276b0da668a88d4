"""Tests for the metrics registry and Prometheus exposition."""

import math

import pytest

from repro.desim.monitor import Monitor
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    absorb_monitor,
)


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


def _metrics_labelled(*labelnames):
    registry = MetricsRegistry()
    return {
        "counter": registry.counter("c", labelnames=labelnames),
        "gauge": registry.gauge("g", labelnames=labelnames),
        "histogram": registry.histogram("h", buckets=(1.0,),
                                        labelnames=labelnames),
    }


# Every call that takes labels, as (metric kind, call).
_LABEL_CALLS = [
    ("counter", lambda m, labels: m.inc(**labels)),
    ("counter", lambda m, labels: m.value(**labels)),
    ("gauge", lambda m, labels: m.set(1.0, **labels)),
    ("gauge", lambda m, labels: m.inc(**labels)),
    ("gauge", lambda m, labels: m.value(**labels)),
    ("histogram", lambda m, labels: m.observe(0.5, **labels)),
    ("histogram", lambda m, labels: m.count(**labels)),
    ("histogram", lambda m, labels: m.sum(**labels)),
]
_CALL_IDS = ["counter.inc", "counter.value", "gauge.set", "gauge.inc",
             "gauge.value", "histogram.observe", "histogram.count",
             "histogram.sum"]


class TestLabelKeys:
    @pytest.mark.parametrize("make", [
        lambda: Counter("c", "", ("tenant", "tenant")),
        lambda: Gauge("g", "", ("a", "b", "a")),
        lambda: Histogram("h", "", (1.0,), ("le", "le")),
        lambda: MetricsRegistry().counter("c", labelnames=("x", "x")),
    ], ids=["counter", "gauge", "histogram", "registry"])
    def test_duplicate_label_names_rejected(self, make):
        with pytest.raises(ValueError, match="duplicate label names"):
            make()

    @pytest.mark.parametrize("kind,call", _LABEL_CALLS, ids=_CALL_IDS)
    @pytest.mark.parametrize("labels,got", [
        ({"tenant": "t1"}, "('tenant',)"),  # missing
        ({"tenant": "t1", "reason": "full", "x": "1"},
         "('reason', 'tenant', 'x')"),  # extra
        ({"tenant": "t1", "raeson": "full"}, "('raeson', 'tenant')"),
        ({}, "()"),
    ], ids=["missing", "extra", "misspelled", "none"])
    def test_wrong_labels_keep_their_message(self, kind, call, labels, got):
        metric = _metrics_labelled("tenant", "reason")[kind]
        expected = (
            f"scan_{kind[0]}: expected labels ('tenant', 'reason'), got {got}"
        )
        with pytest.raises(ValueError) as raised:
            call(metric, labels)
        assert str(raised.value) == expected

    @pytest.mark.parametrize("kind,call", _LABEL_CALLS, ids=_CALL_IDS)
    def test_unlabelled_metric_refuses_labels(self, kind, call):
        metric = _metrics_labelled()[kind]
        with pytest.raises(ValueError) as raised:
            call(metric, {"tenant": "t1"})
        assert str(raised.value) == (
            f"scan_{kind[0]}: expected labels (), got ('tenant',)"
        )

    def test_label_values_are_str_ed_in_labelname_order(self):
        metrics = _metrics_labelled("tenant", "attempt")
        metrics["counter"].inc(attempt=2, tenant=7)
        metrics["gauge"].set(3.0, attempt=2.5, tenant=None)
        metrics["histogram"].observe(0.5, tenant=True, attempt=0)
        assert metrics["counter"].value(tenant="7", attempt="2") == 1.0
        assert metrics["counter"].value(attempt=2, tenant=7) == 1.0
        assert metrics["gauge"].value(tenant="None", attempt="2.5") == 3.0
        assert metrics["histogram"].count(tenant="True", attempt="0") == 1
        assert list(metrics["counter"].samples()) == [
            ("scan_c", {"tenant": "7", "attempt": "2"}, 1.0)
        ]


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
