"""Metrics registry: counters, gauges, histograms; Prometheus exposition.

The paper's platform is driven by measured facts, and the ROADMAP's
production north star needs a scrape surface: this module provides the
standard triad -- monotone counters, set-anywhere gauges and fixed-bucket
histograms -- each optionally labelled, collected in a
:class:`MetricsRegistry` whose :meth:`~MetricsRegistry.expose` renders the
Prometheus text exposition format (text/plain; version 0.0.4).

:func:`absorb_monitor` summarises a :class:`~repro.desim.monitor.Monitor`
into gauges, so a session's series land in the same registry as the live
scheduler counters.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Optional, Sequence

from repro.desim.monitor import Monitor

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_TU",
    "POP_LATENCY_BUCKETS_S",
    "absorb_monitor",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets for pipeline latencies (TU).
LATENCY_BUCKETS_TU = (5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0, 200.0, 400.0)

#: Wall-clock buckets (seconds) for service-plane queue waits: sub-ms
#: in-memory pops up through minutes of backlog.
POP_LATENCY_BUCKETS_S = (
    0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared base: a named family of labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _check_name(label)
        if len(set(self.labelnames)) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: duplicate label names {self.labelnames}"
            )

    def _key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        # The label names are distinct, so equal counts plus a lookup of
        # every name is the same test as comparing the two name sets.
        names = self.labelnames
        if len(labels) == len(names):
            try:
                return tuple([str(labels[k]) for k in names])
            except KeyError:
                pass
        raise ValueError(
            f"{self.name}: expected labels {names}, "
            f"got {tuple(sorted(labels))}"
        )

    def _labels_of(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(_Metric):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, by: float = 1.0, **labels: str) -> None:
        """Add *by* (must be >= 0) to the child named by *labels*."""
        if by < 0:
            raise ValueError(f"counter {self.name} cannot decrease (by={by})")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + by

    def value(self, **labels: str) -> float:
        """Current count of one child (0 if never incremented)."""
        return self._values.get(self._key(labels), 0.0)

    def samples(self):
        for key in sorted(self._values):
            yield self.name, self._labels_of(key), self._values[key]


class Gauge(_Metric):
    """A value that can go anywhere (queue depth, utilisation, ...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[self._key(labels)] = float(value)

    def inc(self, by: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + by

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self):
        for key in sorted(self._values):
            yield self.name, self._labels_of(key), self._values[key]


class Histogram(_Metric):
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``buckets`` are upper bounds; a ``+Inf`` bucket is implicit.  Each
    child tracks cumulative bucket counts plus ``_sum`` and ``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float],
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name} buckets must strictly increase")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("+Inf bucket is implicit; do not pass it")
        self.buckets = bounds
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}
        self._totals: dict[tuple[str, ...], int] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation (NaN observations are ignored)."""
        if math.isnan(value):
            return
        key = self._key(labels)
        counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: str) -> int:
        return self._totals.get(self._key(labels), 0)

    def sum(self, **labels: str) -> float:
        return self._sums.get(self._key(labels), 0.0)

    def samples(self):
        for key in sorted(self._counts):
            labels = self._labels_of(key)
            cumulative = 0
            for bound, n in zip(self.buckets, self._counts[key]):
                cumulative += n
                yield (
                    f"{self.name}_bucket",
                    {**labels, "le": _format_value(bound)},
                    float(cumulative),
                )
            cumulative += self._counts[key][-1]
            yield f"{self.name}_bucket", {**labels, "le": "+Inf"}, float(cumulative)
            yield f"{self.name}_sum", labels, self._sums[key]
            yield f"{self.name}_count", labels, float(cumulative)


class MetricsRegistry:
    """A named collection of metrics with one text exposition surface."""

    def __init__(self, prefix: str = "scan_") -> None:
        self.prefix = prefix
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric) or existing.labelnames != metric.labelnames:
                raise ValueError(
                    f"metric {metric.name!r} already registered with a "
                    "different type or label set"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Get-or-create a counter (idempotent for identical signatures)."""
        metric = self._register(Counter(self.prefix + name, help, labelnames))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get-or-create a gauge."""
        metric = self._register(Gauge(self.prefix + name, help, labelnames))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_TU,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        """Get-or-create a fixed-bucket histogram."""
        metric = self._register(
            Histogram(self.prefix + name, help, buckets, labelnames)
        )
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        """The registered metric named ``prefix+name``, or None."""
        return self._metrics.get(self.prefix + name)

    def __len__(self) -> int:
        return len(self._metrics)

    def expose(self) -> str:
        """Prometheus text exposition (one HELP/TYPE block per family)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample_name, labels, value in metric.samples():
                lines.append(
                    f"{sample_name}{_format_labels(labels)} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        """Write the exposition snapshot to *path*."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.expose())


# -- adapters over the desim monitors -------------------------------------

def absorb_monitor(
    registry: MetricsRegistry, monitor: Monitor, name: str, help: str = ""
) -> None:
    """Summarise a :class:`Monitor` into gauges (count/mean/percentiles)."""
    summary = monitor.summary()
    gauge = registry.gauge(name, help or f"summary of monitor {monitor.name!r}",
                           labelnames=("stat",))
    for stat, value in summary.items():
        gauge.set(value, stat=stat)

