"""repro.telemetry: tracing, metrics and decision audit.

The observability layer for the SCAN reproduction.  Everything here is
*passive*: instruments read the simulation's clocks and state but draw no
random numbers and schedule no events, so enabling telemetry never
changes simulated results, and disabling it (the default --
``TelemetryHub.from_config`` returns ``None``) leaves the platform
running the exact pre-telemetry code paths.

Parts
-----
- :mod:`~repro.telemetry.tracing` -- sim-time + wall-time spans with
  Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).
- :mod:`~repro.telemetry.metrics` -- counters/gauges/histograms with a
  Prometheus-style text exposition and adapters over the desim monitors.
- :mod:`~repro.telemetry.audit` -- every scheduler hire-or-wait decision
  with its Eq. 1 delay-cost inputs, replayable offline.
- :mod:`~repro.telemetry.hub` -- the :class:`TelemetryHub` handle that
  the session/platform threads through every component.
"""

from repro.telemetry.audit import (
    DecisionAuditLog,
    ScalingDecisionRecord,
    decision_label,
    replay_decision,
)
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    absorb_monitor,
)
from repro.telemetry.tracing import (
    LANE_CONTROL,
    Span,
    SpanTracer,
    TU_TO_US,
    lane_for_stage,
    lane_for_worker,
)

__all__ = [
    "Counter",
    "DecisionAuditLog",
    "Gauge",
    "Histogram",
    "LANE_CONTROL",
    "MetricsRegistry",
    "ScalingDecisionRecord",
    "Span",
    "SpanTracer",
    "TU_TO_US",
    "TelemetryHub",
    "absorb_monitor",
    "decision_label",
    "lane_for_stage",
    "lane_for_worker",
    "replay_decision",
]
