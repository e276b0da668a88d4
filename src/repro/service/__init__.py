"""``repro.service``: the multi-tenant service plane.

The paper's prototype is a long-running CherryPy service that many users
submit analyses to over HTTP RPC (Section III-B); the in-process
:class:`~repro.core.platform.SCANPlatform` facade reproduces the verbs but
not the *service*.  This package adds the missing front door, following
the nl-kat-mula scheduler blueprint (SNIPPETS.md snippets 2-3): bounded
per-tenant priority queues maintained in memory with a thread-safe
push/pop API, pluggable priority-calculation strategies, admission control
at capacity, and an append-friendly persistent store from which the
in-memory queues are rebuilt after a restart -- no accepted job is ever
lost.

Layers
------
:mod:`repro.service.queue`
    ``JobQueue`` -- per-tenant bounded priority queues, the
    ``PRIORITY_STRATEGIES`` registry, admission control.
:mod:`repro.service.store`
    ``QueueStore`` -- write-ahead queue records over one
    :mod:`repro.core.ledger` ledger, replayed after a restart.
:mod:`repro.service.plane`
    ``ServicePlane`` -- pumps popped jobs into a ``SCANPlatform``, makes
    the circuit breaker and dead-letter queue per-tenant, publishes
    lifecycle events on the bus, labels every metric with its tenant.
:mod:`repro.service.config`
    ``ServiceConfig`` -- the deployment knobs.

The HTTP surface lives in :mod:`repro.core.rpc` (tenant-scoped endpoints)
and the CLI entry point is ``scan-sim serve --service``.
"""

from repro.service.config import ServiceConfig
from repro.service.queue import (
    PRIORITY_STRATEGIES,
    AdmissionDecision,
    JobQueue,
    QueuedJob,
    ServiceJobState,
)
from repro.service.store import QueueStore
from repro.service.plane import ServicePlane

__all__ = [
    "ServiceConfig",
    "PRIORITY_STRATEGIES",
    "AdmissionDecision",
    "JobQueue",
    "QueuedJob",
    "ServiceJobState",
    "QueueStore",
    "ServicePlane",
]
