"""TelemetryHub: the per-run owner of the telemetry instruments.

One hub owns at most one of each instrument -- span tracer, metrics
registry, decision audit log -- as configured by
:class:`~repro.core.config.TelemetryConfig`.  The scheduler hands it to
:func:`~repro.telemetry.bus_adapter.attach_hub`, which subscribes each
instrument to the run's event bus.  Besides those adapters only the
session driver (its ``engine.run`` and ``broker.ingest_batch`` spans and
end-of-run metrics), the online refitter's metrics and the CLI's
exporters touch an instrument.  The determinism contract is structural:
:meth:`TelemetryHub.from_config` returns ``None`` when telemetry is
disabled, and the few integration points guard with ``if hub is not
None``, so a disabled run executes exactly the code it executed before
this subsystem existed.  Enabled instruments only *read* the simulation
-- no RNG draws, no scheduled events -- so sim-time results never change.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import TelemetryConfig
from repro.desim.engine import Environment
from repro.telemetry.audit import DecisionAuditLog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import SpanTracer

__all__ = ["TelemetryHub"]


class TelemetryHub:
    """Owns the per-run telemetry instruments selected by the config."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        if config is None:
            config = TelemetryConfig(enabled=True)
        self.config = config
        self.tracer: Optional[SpanTracer] = (
            SpanTracer(max_events=config.max_trace_events) if config.trace else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics else None
        )
        self.audit: Optional[DecisionAuditLog] = (
            DecisionAuditLog() if config.audit else None
        )

    @property
    def explains_decisions(self) -> bool:
        """Whether to explain and publish hire-or-wait decisions.

        Only the audit log and the trace read them.
        """
        return self.audit is not None or self.tracer is not None

    @staticmethod
    def from_config(config: Optional[TelemetryConfig]) -> Optional["TelemetryHub"]:
        """The no-op fast path: ``None`` unless telemetry is enabled."""
        if config is None or not config.enabled:
            return None
        return TelemetryHub(config)

    def bind(self, env: Environment) -> None:
        """Point the instruments at a live environment (each run)."""
        if self.tracer is not None:
            self.tracer.bind_clock(lambda: env.now)
