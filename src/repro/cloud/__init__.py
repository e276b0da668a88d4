"""Simulated hybrid-cloud substrate.

Models the evaluation's infrastructure (paper Section IV-A): by default a
two-tier hybrid cloud -- a bounded private tier (624 cores at 5 CU/TU per
core) and an effectively unbounded public tier (20-110 CU/TU per core) --
generalised since the tier-backend refactor to an N-tier stack of
pluggable backends, plus the pieces the prototype ran on:

- :mod:`repro.cloud.infrastructure` -- the tier stack, core accounting and
  per-tier pricing (``CloudTier.cost_rate`` / ``accumulated_cost``).
- :mod:`repro.cloud.tiers` -- the ``TIER_BACKENDS`` registry (reserved /
  on_demand / serverless / spot) and ``TIER_PLACEMENT`` policies.
- :mod:`repro.cloud.vm` -- VM lifecycle with the 30-second (0.5 TU) start /
  restart penalty paid when CELAR resizes a worker's vCPU count.
- :mod:`repro.cloud.celar` -- the CELAR elasticity middleware stand-in
  (the Manager: deploy, resize, terminate).
- :mod:`repro.cloud.storage` -- the shared-filesystem (CIFS stand-in)
  model.
"""

from repro.cloud.infrastructure import CloudTier, Infrastructure
from repro.cloud.tiers import (
    TIER_BACKENDS,
    TIER_PLACEMENT,
    OnDemandTier,
    ServerlessTier,
    SpotTier,
)
from repro.cloud.vm import VirtualMachine, VMState
from repro.cloud.faults import FaultPlan, FaultInjector
from repro.cloud.celar import CelarManager
from repro.cloud.storage import SharedFilesystem, TransferError

__all__ = [
    "CloudTier",
    "Infrastructure",
    "TIER_BACKENDS",
    "TIER_PLACEMENT",
    "OnDemandTier",
    "ServerlessTier",
    "SpotTier",
    "VirtualMachine",
    "VMState",
    "FaultPlan",
    "FaultInjector",
    "CelarManager",
    "SharedFilesystem",
    "TransferError",
]
