"""Exception hierarchy for the SCAN platform."""

from __future__ import annotations

__all__ = [
    "SCANError",
    "ConfigurationError",
    "SchedulingError",
    "BrokerError",
    "KnowledgeBaseError",
    "CloudError",
    "TransientDeployError",
]


class SCANError(Exception):
    """Base class for all SCAN platform errors."""


class ConfigurationError(SCANError):
    """An invalid or inconsistent platform/simulation configuration."""


class SchedulingError(SCANError):
    """Scheduler invariant violation or invalid scheduling request."""


class BrokerError(SCANError):
    """Data Broker failure (unshardale format, bad shard plan, ...)."""


class KnowledgeBaseError(SCANError):
    """Knowledge-base failure (missing profile, malformed query, ...)."""


class CloudError(SCANError):
    """Simulated-cloud failure (tier exhausted, invalid instance size)."""


class TransientDeployError(CloudError):
    """A CELAR deploy request failed transiently (provisioning error).

    Retryable: the capacity check passed but the provider bounced the
    request; the scheduler re-dispatches after a short delay instead of
    treating it as a scheduling invariant violation.
    """

