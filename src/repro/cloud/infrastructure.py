"""Cloud tiers and core accounting.

"We thus setup a hybrid cloud for our evaluation which consist of two
tiers: a private tier (624 CPU cores ...) and a public tier.  Using cores
at either tier has a constant cost per core per unit time, with private
cores being cheaper than public cores" (paper Section IV-A).

Since the tier-backend refactor the two-tier hybrid is just the default
configuration of an N-tier :class:`Infrastructure`: an ordered list of
named :class:`CloudTier` backends (see :mod:`repro.cloud.tiers` for the
``TIER_BACKENDS`` registry of ``reserved`` / ``on_demand`` /
``serverless`` / ``spot`` implementations) plus a pluggable placement
policy (``TIER_PLACEMENT``; ``cheapest_first`` reproduces the paper's
private-first placement).  Tiers are identified by plain name strings;
this module is the only place the default ``private``/``public`` pair is
spelled out.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from repro.core.errors import CloudError
from repro.desim.engine import Environment
from repro.desim.monitor import TimeWeightedMonitor

__all__ = ["CloudTier", "Infrastructure"]


class CloudTier:
    """One tier: bounded core pool with a per-core-per-TU price.

    This is the ``reserved`` tier backend -- today's bounded private
    tier -- and the base class of every other backend.  Subclasses
    customise the protocol hooks:

    - :meth:`can_allocate` / :meth:`allocate` / :meth:`release`
      (capacity and lifecycle),
    - :meth:`cost_rate` / :meth:`accumulated_cost` (pricing; serverless
      adds per-invocation charges),
    - :meth:`allocation_latency_tu` (per-allocation latency, e.g. a
      serverless cold start, added to the VM boot penalty),
    - :meth:`placement_check` (optional per-allocation caps, rejected at
      placement time).
    """

    #: Registry name of this backend (``scan-sim tiers`` reports it).
    backend = "reserved"
    #: Elastic tiers are hired through the scaling policy and guarded by
    #: the deploy circuit breaker; the reserved base tier is neither.
    elastic = False

    def __init__(
        self,
        env: Environment,
        name: str,
        capacity_cores: int,
        core_cost_per_tu: float,
    ) -> None:
        if not name:
            raise CloudError("tier name must be non-empty")
        if capacity_cores < 0:
            raise CloudError(f"negative capacity for tier {name}")
        if core_cost_per_tu < 0:
            raise CloudError(f"negative core cost for tier {name}")
        self.env = env
        self.name = name
        self.capacity_cores = capacity_cores
        self.core_cost_per_tu = core_cost_per_tu
        self._in_use = 0
        self._bus = None
        self.usage = TimeWeightedMonitor(
            f"{name}-cores", initial=0.0, start_time=env.now
        )

    # -- capacity ---------------------------------------------------------------
    @property
    def cores_in_use(self) -> int:
        return self._in_use

    @property
    def cores_free(self) -> int:
        return self.capacity_cores - self._in_use

    def can_allocate(self, cores: int) -> bool:
        """Whether *cores* fit in the remaining capacity (and caps)."""
        return cores <= self.cores_free and self.placement_check(cores) is None

    def placement_check(
        self, cores: int, duration_tu: Optional[float] = None
    ) -> Optional[str]:
        """Why a *cores* allocation would be rejected beyond capacity.

        Returns ``None`` when the request passes this backend's
        per-allocation caps; a human-readable reason otherwise.  The base
        (reserved/on-demand) backends have no caps.
        """
        return None

    def bind_bus(self, bus) -> None:
        """Attach the session event bus; rejected placements publish
        :class:`~repro.core.bus.PlacementRejected` (observers previously
        under-counted contention because a full tier raised silently)."""
        self._bus = bus

    def _reject(self, cores: int, reason: str) -> CloudError:
        if self._bus is not None:
            from repro.core.bus import PlacementRejected

            if PlacementRejected in self._bus:
                self._bus.publish(
                    PlacementRejected(self.env.now, self.name, cores, reason)
                )
        return CloudError(reason)

    def allocate(self, cores: int) -> None:
        """Claim *cores*; raises :class:`CloudError` if the tier is full.

        A rejected placement publishes
        :class:`~repro.core.bus.PlacementRejected` on the bound bus
        before raising, so contention observers see it.
        """
        if cores <= 0:
            raise CloudError(f"core allocation must be positive, got {cores}")
        if cores > self.cores_free:
            raise self._reject(
                cores,
                f"tier {self.name} has {self.cores_free} free cores; "
                f"{cores} requested",
            )
        capped = self.placement_check(cores)
        if capped is not None:
            raise self._reject(cores, capped)
        self._in_use += cores
        self.usage.set_level(self.env.now, self._in_use)

    def release(self, cores: int) -> None:
        """Return *cores* to the tier."""
        if cores <= 0 or cores > self._in_use:
            raise CloudError(
                f"invalid release of {cores} cores (in use: {self._in_use})"
            )
        self._in_use -= cores
        self.usage.set_level(self.env.now, self._in_use)

    # -- accounting -------------------------------------------------------------
    def utilization(self) -> float:
        """Time-averaged core utilisation in [0, 1]."""
        if self.capacity_cores == 0:
            return 0.0
        return self.usage.time_average(self.env.now) / self.capacity_cores

    def core_tu_consumed(self) -> float:
        """Integral of allocated cores over time (for cost accounting)."""
        return self.usage.integral(self.env.now)

    def cost_rate(self) -> float:
        """Current spend rate of this tier (CU per TU)."""
        return self._in_use * self.core_cost_per_tu

    def accumulated_cost(self) -> float:
        """Total cost charged against this tier so far (CU)."""
        return self.core_tu_consumed() * self.core_cost_per_tu

    # -- latency / introspection ------------------------------------------------
    def allocation_latency_tu(self, cores: int) -> float:
        """Extra per-allocation latency (e.g. cold start) in TU."""
        return 0.0

    def caps(self) -> dict:
        """Per-allocation caps, for introspection (``scan-sim tiers``)."""
        return {}

    def describe(self) -> dict:
        """A JSON-friendly description of this tier's configuration."""
        return {
            "name": self.name,
            "backend": self.backend,
            "elastic": self.elastic,
            "capacity_cores": self.capacity_cores,
            "core_cost_per_tu": self.core_cost_per_tu,
            "cores_in_use": self.cores_in_use,
            "caps": self.caps(),
        }

    def __repr__(self) -> str:
        return (
            f"<CloudTier {self.name} {self._in_use}/{self.capacity_cores} "
            f"@{self.core_cost_per_tu} CU/core/TU>"
        )


class Infrastructure:
    """An ordered stack of named tiers with pluggable placement.

    The default construction (no ``tiers``) is the paper's two-tier
    hybrid: a bounded ``private`` reserved tier and an effectively
    unbounded ``public`` on-demand tier, placed cheapest-first --
    byte-identical to the pre-refactor hardwired pair.
    """

    def __init__(
        self,
        env: Environment,
        private_cores: int = 624,
        private_cost: float = 5.0,
        public_cores: int = 1_000_000,
        public_cost: float = 50.0,
        tiers: Optional[Sequence[CloudTier]] = None,
        placement: str = "cheapest_first",
    ) -> None:
        self.env = env
        if tiers is None:
            from repro.cloud.tiers import OnDemandTier

            tiers = (
                CloudTier(env, "private", private_cores, private_cost),
                OnDemandTier(env, "public", public_cores, public_cost),
            )
        self._tiers: tuple[CloudTier, ...] = tuple(tiers)
        if not self._tiers:
            raise CloudError("infrastructure needs at least one tier")
        self._by_name: dict[str, CloudTier] = {}
        for t in self._tiers:
            if t.name in self._by_name:
                raise CloudError(f"duplicate tier name {t.name!r}")
            self._by_name[t.name] = t
        from repro.cloud.tiers import TIER_PLACEMENT

        self.placement = placement
        self._order = TIER_PLACEMENT.create(self.placement)

    # -- tier access ------------------------------------------------------------
    @property
    def tiers(self) -> tuple[CloudTier, ...]:
        """The tier stack, in configured order."""
        return self._tiers

    def tier_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self._tiers)

    def tier(self, name: str) -> CloudTier:
        """The tier object named *name*."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CloudError(
                f"unknown tier {name!r}; configured: {list(self._by_name)}"
            ) from None

    @cached_property
    def base(self) -> CloudTier:
        """The base tier: first non-elastic tier, else the first tier.

        The dispatcher hires here without consulting the scaling policy
        (the paper's private-first fast path); stall recovery frees its
        capacity; session accounting reports it as the "private" side.
        """
        for t in self._tiers:
            if not t.elastic:
                return t
        return self._tiers[0]

    def elastic_tiers(self) -> tuple[CloudTier, ...]:
        """Tiers hired through the scaling policy, in configured order."""
        return tuple(t for t in self._tiers if t.elastic)

    def cheapest_elastic(self) -> Optional[CloudTier]:
        """The cheapest elastic tier (ties keep configured order)."""
        return self._cheapest_elastic

    # Roles, prices and caps are fixed once the stack is built, so each
    # fact placement and costing read is computed on first use and kept.
    # ``_order_*`` are placement's try orders over all and elastic tiers.
    @cached_property
    def _cheapest_elastic(self) -> Optional[CloudTier]:
        return min(
            self.elastic_tiers(), key=lambda t: t.core_cost_per_tu, default=None
        )

    @cached_property
    def _duration_caps(self) -> bool:
        return any(t.caps().get("max_duration_tu") for t in self._tiers)

    @cached_property
    def _order_all(self) -> tuple[CloudTier, ...]:
        return self._order(self._tiers)

    @cached_property
    def _order_elastic(self) -> tuple[CloudTier, ...]:
        return self._order(self.elastic_tiers())

    @property
    def private(self) -> CloudTier:
        """Legacy accessor: the tier named ``private`` (default stack)."""
        return self.tier("private")

    @property
    def public(self) -> CloudTier:
        """Legacy accessor: the tier named ``public`` (default stack)."""
        return self.tier("public")

    # -- placement --------------------------------------------------------------
    def place(
        self, cores: int, duration_tu: Optional[float] = None
    ) -> Optional[str]:
        """Pick a tier for *cores* via the placement policy.

        Returns the tier name, or ``None`` when nothing fits.  Does not
        allocate.  ``duration_tu``, when known, lets duration-capped
        backends (serverless) reject at placement.
        """
        return _first_fitting(self._order_all, cores, duration_tu)

    def place_elastic(
        self, cores: int, duration_tu: Optional[float] = None
    ) -> Optional[str]:
        """Placement restricted to elastic tiers (scaling-policy side)."""
        return _first_fitting(self._order_elastic, cores, duration_tu)

    def has_duration_caps(self) -> bool:
        """Whether any tier caps per-allocation duration (serverless)."""
        return self._duration_caps

    # -- allocation -------------------------------------------------------------
    def allocate(self, cores: int, tier) -> None:
        """Claim *cores* on *tier*."""
        self.tier(tier).allocate(cores)

    def release(self, cores: int, tier) -> None:
        """Return *cores* to *tier*."""
        self.tier(tier).release(cores)

    def bind_bus(self, bus) -> None:
        """Attach the event bus to every tier (placement rejections)."""
        for t in self._tiers:
            t.bind_bus(bus)

    # -- accounting -------------------------------------------------------------
    def total_cores_in_use(self) -> int:
        """Cores currently allocated across every tier."""
        return sum(t.cores_in_use for t in self._tiers)

    def cost_rate(self) -> float:
        """Current spend rate (CU per TU) across every tier.

        This is the paper's cost function: "maps the number of machines
        currently active and their configuration to the cost per unit time
        of keeping them running".
        """
        return sum(t.cost_rate() for t in self._tiers)

    def accumulated_cost(self) -> float:
        """Total core-time cost so far (CU), summed over tier backends."""
        return sum(t.accumulated_cost() for t in self._tiers)

    def describe(self) -> list[dict]:
        """Per-tier configuration dump (``scan-sim tiers``)."""
        return [t.describe() for t in self._tiers]


def _first_fitting(
    order: Sequence[CloudTier], cores: int, duration_tu: Optional[float]
) -> Optional[str]:
    """Name of the first tier in *order* that fits *cores*, else ``None``."""
    for tier in order:
        if (
            cores <= tier.cores_free
            and tier.placement_check(cores, duration_tu) is None
        ):
            return tier.name
    return None
