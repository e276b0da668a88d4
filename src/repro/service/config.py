"""Service-plane deployment configuration.

Deliberately *not* a section of :class:`~repro.core.config.PlatformConfig`:
the platform config describes one simulated deployment (and its default
serialized form is pinned by a golden fixture); the service config
describes the long-running process *around* it -- queue capacity,
admission policy, persistence, HTTP limits.  ``scan-sim serve --service``
builds it from command-line flags.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one ``scan-sim serve --service`` deployment."""

    #: Bounded queue capacity *per tenant* (mula: "finite (configurable)
    #: number of items in the priority queue").
    tenant_capacity: int = 1024
    #: Priority-calculation strategy (``PRIORITY_STRATEGIES`` registry).
    priority_strategy: str = "fifo"
    #: What happens when a tenant's queue is full: ``reject`` bounces the
    #: newcomer (429); ``shed_lowest`` evicts the worst-priority queued
    #: job when the newcomer outranks it.
    admission: str = "reject"
    #: Queue-store spec (``memory``, a ``.jsonl`` path, a ``.db`` path,
    #: or ``kind:path`` for any registered backend).
    store: str = "memory"
    #: Service-level execution attempts per job before it dead-letters.
    max_job_attempts: int = 2
    #: Consecutive failed jobs that open a tenant's circuit breaker.
    breaker_threshold: int = 3
    #: Seconds an open tenant breaker rejects submissions (503) before a
    #: half-open probe is allowed.
    breaker_cooldown_s: float = 30.0
    #: Largest request body the RPC layer will read (413 beyond this).
    max_body_bytes: int = 1_048_576
    #: Socket read timeout for one HTTP request (a stalled client frees
    #: its handler thread after this many seconds).
    read_timeout_s: float = 10.0

    def validate(self) -> "ServiceConfig":
        """Raise ConfigurationError on invalid fields; returns self."""
        if self.tenant_capacity < 1:
            raise ConfigurationError("tenant_capacity must be >= 1")
        if not self.priority_strategy:
            raise ConfigurationError("priority_strategy must be named")
        if self.admission not in ("reject", "shed_lowest"):
            raise ConfigurationError(
                f"unknown admission policy {self.admission!r}; "
                "known: reject, shed_lowest"
            )
        if not self.store:
            raise ConfigurationError("store must be named")
        if self.max_job_attempts < 1:
            raise ConfigurationError("max_job_attempts must be >= 1")
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s <= 0:
            raise ConfigurationError("breaker_cooldown_s must be positive")
        if self.max_body_bytes < 1024:
            raise ConfigurationError("max_body_bytes must be >= 1024")
        if self.read_timeout_s <= 0:
            raise ConfigurationError("read_timeout_s must be positive")
        return self
