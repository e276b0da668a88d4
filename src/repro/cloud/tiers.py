"""Pluggable tier backends and placement policies.

The paper's evaluation cloud is exactly two tiers; real elastic platforms
are not.  This module turns "a tier" into a plugin family:

- :data:`TIER_BACKENDS` -- a registry of tier implementations keyed by
  backend name.  ``reserved`` is the paper's bounded private tier,
  ``on_demand`` its unbounded public tier, ``serverless`` a FaaS-style
  tier (per-invocation pricing, cold-start latency, hard per-allocation
  caps -- the Arjona et al. variant-calling-on-FaaS model), and ``spot``
  a preemptible tier whose evictions are a first-class fault stream with
  price-correlated intensity.
- :data:`TIER_PLACEMENT` -- a registry of placement policies over an
  ordered tier stack.  A policy is a try order: placement takes the
  first tier in it that fits.  ``cheapest_first`` reproduces the paper's
  private-first placement for the default configuration; ``first_fit``
  honours the configured order verbatim.

Out-of-tree backends register exactly like every other plugin family::

    from repro.cloud.tiers import TIER_BACKENDS

    @TIER_BACKENDS.register("burstable")
    def _burstable(env, name, capacity_cores, core_cost_per_tu, **extras):
        return BurstableTier(env, name, capacity_cores, core_cost_per_tu)
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from repro.cloud.infrastructure import CloudTier, Infrastructure
from repro.core.errors import CloudError
from repro.core.plugins import Registry
from repro.desim.engine import Environment

__all__ = [
    "TIER_BACKENDS",
    "TIER_PLACEMENT",
    "OnDemandTier",
    "ServerlessTier",
    "SpotTier",
    "build_tier",
    "infrastructure_from_cloud_config",
    "tier_stack_description",
]

#: Plugin registry of tier backends: ``(env, name, **params) -> CloudTier``.
TIER_BACKENDS: "Registry[CloudTier]" = Registry("tier_backend")

#: Plugin registry of placement policies: ``() -> (tiers) -> tuple``, the
#: order in which placement tries *tiers*.  The stack computes each order
#: once, on first use.
TIER_PLACEMENT: "Registry[Any]" = Registry("tier_placement")


# -- backends -----------------------------------------------------------------
class OnDemandTier(CloudTier):
    """Today's public tier: pay-per-core-TU, effectively unbounded.

    Identical accounting to the reserved backend; the difference is
    *role*: elastic tiers are hired through the scaling policy and
    guarded by the deploy circuit breaker.
    """

    backend = "on_demand"
    elastic = True


class ServerlessTier(CloudTier):
    """A FaaS-style tier: per-invocation pricing, cold starts, hard caps.

    Each allocation ("invocation") charges ``invocation_cost`` CU up
    front on top of the metered core-TU rate, pays ``cold_start_tu`` of
    extra boot latency, and is rejected at placement when it exceeds the
    per-allocation core cap (the FaaS memory limit, cores being the
    platform's memory proxy at 4 GB/core) or -- when the caller knows the
    expected duration -- the per-allocation duration cap.
    """

    backend = "serverless"
    elastic = True

    def __init__(
        self,
        env: Environment,
        name: str,
        capacity_cores: int = 1_000_000,
        core_cost_per_tu: float = 0.0,
        invocation_cost: float = 0.0,
        cold_start_tu: float = 0.0,
        max_cores_per_allocation: Optional[int] = None,
        max_duration_tu: Optional[float] = None,
    ) -> None:
        super().__init__(env, name, capacity_cores, core_cost_per_tu)
        if invocation_cost < 0:
            raise CloudError(f"negative invocation cost for tier {self.name}")
        if cold_start_tu < 0:
            raise CloudError(f"negative cold start for tier {self.name}")
        if max_cores_per_allocation is not None and max_cores_per_allocation < 1:
            raise CloudError(
                f"max_cores_per_allocation must be >= 1 for tier {self.name}"
            )
        if max_duration_tu is not None and max_duration_tu <= 0:
            raise CloudError(
                f"max_duration_tu must be positive for tier {self.name}"
            )
        self.invocation_cost = invocation_cost
        self.cold_start_tu = cold_start_tu
        self.max_cores_per_allocation = max_cores_per_allocation
        self.max_duration_tu = max_duration_tu
        self.invocations = 0
        self._invocation_cu = 0.0

    def placement_check(
        self, cores: int, duration_tu: Optional[float] = None
    ) -> Optional[str]:
        cap = self.max_cores_per_allocation
        if cap is not None and cores > cap:
            return (
                f"tier {self.name} caps allocations at {cap} cores; "
                f"{cores} requested"
            )
        if (
            duration_tu is not None
            and self.max_duration_tu is not None
            and duration_tu > self.max_duration_tu
        ):
            return (
                f"tier {self.name} caps invocations at "
                f"{self.max_duration_tu} TU; {duration_tu:.3f} expected"
            )
        return None

    def allocate(self, cores: int) -> None:
        super().allocate(cores)
        self.invocations += 1
        self._invocation_cu += self.invocation_cost

    def allocation_latency_tu(self, cores: int) -> float:
        return self.cold_start_tu

    def cost_rate(self) -> float:
        # Invocation charges are impulses, not a rate; only the metered
        # core-TU component contributes to the instantaneous spend rate.
        return super().cost_rate()

    def accumulated_cost(self) -> float:
        return super().accumulated_cost() + self._invocation_cu

    def caps(self) -> dict:
        caps: dict = {}
        if self.max_cores_per_allocation is not None:
            caps["max_cores_per_allocation"] = self.max_cores_per_allocation
        if self.max_duration_tu is not None:
            caps["max_duration_tu"] = self.max_duration_tu
        return caps

    def describe(self) -> dict:
        desc = super().describe()
        desc["invocation_cost"] = self.invocation_cost
        desc["cold_start_tu"] = self.cold_start_tu
        desc["invocations"] = self.invocations
        return desc


class SpotTier(CloudTier):
    """A preemptible tier: cheap cores that the provider reclaims.

    Evictions are modelled as exponential worker lifetimes drawn from
    the dedicated ``faults.spot`` RNG stream (see
    :mod:`repro.cloud.faults`), with *price-correlated intensity*: when
    ``reference_cost_per_tu`` (typically the on-demand price) is set, the
    effective MTBF scales by ``core_cost_per_tu / reference_cost_per_tu``
    -- the deeper the discount, the sooner the capacity is reclaimed.
    Evicted tasks flow through the scheduler's ordinary retry /
    dead-letter resilience path.
    """

    backend = "spot"
    elastic = True

    def __init__(
        self,
        env: Environment,
        name: str,
        capacity_cores: int,
        core_cost_per_tu: float,
        eviction_mtbf_tu: Optional[float] = None,
        reference_cost_per_tu: Optional[float] = None,
    ) -> None:
        super().__init__(env, name, capacity_cores, core_cost_per_tu)
        if eviction_mtbf_tu is not None and eviction_mtbf_tu <= 0:
            raise CloudError(
                f"eviction_mtbf_tu must be positive for tier {self.name}"
            )
        if reference_cost_per_tu is not None and reference_cost_per_tu <= 0:
            raise CloudError(
                f"reference_cost_per_tu must be positive for tier {self.name}"
            )
        self.eviction_mtbf_tu = eviction_mtbf_tu
        self.reference_cost_per_tu = reference_cost_per_tu
        self.evictions = 0

    @property
    def effective_eviction_mtbf(self) -> Optional[float]:
        """The price-scaled eviction MTBF (TU); None disables evictions."""
        base = self.eviction_mtbf_tu
        if base is None:
            return None
        ref = self.reference_cost_per_tu
        if ref is not None and self.core_cost_per_tu > 0:
            return base * (self.core_cost_per_tu / ref)
        return base

    def record_eviction(self) -> None:
        """Count one provider reclaim (the worker pool reports them)."""
        self.evictions += 1

    def caps(self) -> dict:
        return {}

    def describe(self) -> dict:
        desc = super().describe()
        desc["eviction_mtbf_tu"] = self.eviction_mtbf_tu
        desc["effective_eviction_mtbf_tu"] = self.effective_eviction_mtbf
        desc["evictions"] = self.evictions
        return desc


# -- backend registrations ----------------------------------------------------
@TIER_BACKENDS.register("reserved")
def _reserved(
    env: Environment, name: str, capacity_cores: int = 0,
    core_cost_per_tu: float = 0.0, **_ignored,
) -> CloudTier:
    return CloudTier(env, name, capacity_cores, core_cost_per_tu)


@TIER_BACKENDS.register("on_demand")
def _on_demand(
    env: Environment, name: str, capacity_cores: int = 1_000_000,
    core_cost_per_tu: float = 0.0, **_ignored,
) -> CloudTier:
    return OnDemandTier(env, name, capacity_cores, core_cost_per_tu)


@TIER_BACKENDS.register("serverless")
def _serverless(
    env: Environment, name: str, capacity_cores: int = 1_000_000,
    core_cost_per_tu: float = 0.0, invocation_cost: float = 0.0,
    cold_start_tu: float = 0.0,
    max_cores_per_allocation: Optional[int] = None,
    max_duration_tu: Optional[float] = None, **_ignored,
) -> CloudTier:
    return ServerlessTier(
        env, name, capacity_cores, core_cost_per_tu,
        invocation_cost=invocation_cost, cold_start_tu=cold_start_tu,
        max_cores_per_allocation=max_cores_per_allocation,
        max_duration_tu=max_duration_tu,
    )


@TIER_BACKENDS.register("spot")
def _spot(
    env: Environment, name: str, capacity_cores: int = 0,
    core_cost_per_tu: float = 0.0,
    eviction_mtbf_tu: Optional[float] = None,
    reference_cost_per_tu: Optional[float] = None, **_ignored,
) -> CloudTier:
    return SpotTier(
        env, name, capacity_cores, core_cost_per_tu,
        eviction_mtbf_tu=eviction_mtbf_tu,
        reference_cost_per_tu=reference_cost_per_tu,
    )


# -- placement policies -------------------------------------------------------
@TIER_PLACEMENT.register("cheapest_first")
def _cheapest_first():
    """Cheapest fitting tier wins; price ties keep configured order.

    For the default stack (private @ 5, public @ 50) this is exactly the
    paper's private-first placement.
    """

    def order(tiers: Iterable[CloudTier]) -> tuple[CloudTier, ...]:
        return tuple(sorted(tiers, key=lambda t: t.core_cost_per_tu))

    return order


@TIER_PLACEMENT.register("first_fit")
def _first_fit():
    """First fitting tier in configured order, regardless of price."""
    return tuple


# -- config glue --------------------------------------------------------------
def build_tier(env: Environment, spec) -> CloudTier:
    """Instantiate one tier from a spec (a ``TierConfig`` or mapping)."""
    if isinstance(spec, Mapping):
        params = dict(spec)
    else:  # dataclass-style (core.config.TierConfig)
        from dataclasses import asdict

        params = asdict(spec)
    name = params.pop("name", None)
    if not name:
        raise CloudError("tier spec needs a 'name'")
    backend = params.pop("backend", "reserved")
    return TIER_BACKENDS.create(backend, env, name, **params)


def infrastructure_from_cloud_config(env: Environment, cloud) -> Infrastructure:
    """Build the tier stack a ``CloudConfig`` describes.

    An explicit ``tiers:`` list wins; otherwise the legacy two-tier
    fields (``private_cores`` / ``public_core_cost`` / ...) produce the
    default reserved + on-demand pair, byte-identical to the
    pre-refactor wiring.
    """
    specs = getattr(cloud, "tiers", ())
    placement = getattr(cloud, "placement", "cheapest_first")
    if specs:
        return Infrastructure(
            env,
            tiers=[build_tier(env, spec) for spec in specs],
            placement=placement,
        )
    return Infrastructure(
        env,
        private_cores=cloud.private_cores,
        private_cost=cloud.private_core_cost,
        public_cores=cloud.public_cores,
        public_cost=cloud.public_core_cost,
        placement=placement,
    )


def tier_stack_description(cloud) -> list[dict]:
    """The configured tier stack as JSON-friendly dicts (no simulation).

    Used by ``scan-sim tiers`` to dump a config's stack without running
    anything: a throwaway environment at t=0 hosts the backends purely
    for their configuration view.
    """
    env = Environment()
    infra = infrastructure_from_cloud_config(env, cloud)
    out = []
    for desc in infra.describe():
        desc.pop("cores_in_use", None)
        out.append(desc)
    return out
