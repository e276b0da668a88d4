"""Pricing: per-core-per-TU cost model, meters and invoices.

Costs in CU (cost units) exactly as the paper; Table I sweeps the public
tier price over {20, 50, 80, 110} CU/TU with the private tier fixed at
5 CU/TU (Table III).

Since the tier-backend refactor the model is N-tier: ``tier_costs`` maps
arbitrary tier names to prices, with the legacy ``private`` /
``public`` pair as the default stack (any tier not listed falls back to
the public price -- elastic overflow is the scheduling-relevant signal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.errors import CloudError

__all__ = ["PricingModel", "CostMeter", "Invoice"]


@dataclass(frozen=True)
class PricingModel:
    """Per-tier core prices (CU per core per TU)."""

    private_core_cost: float = 5.0
    public_core_cost: float = 50.0
    #: Extra named tiers (spot, serverless, ...); ``private`` / ``public``
    #: entries here override the two legacy fields.
    tier_costs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.private_core_cost < 0 or self.public_core_cost < 0:
            raise CloudError("core costs must be >= 0")
        for name, cost in self.tier_costs.items():
            if cost < 0:
                raise CloudError(f"core cost for tier {name!r} must be >= 0")

    def core_cost(self, tier: str) -> float:
        """The tier's price (CU per core per TU).

        Unlisted tiers quote the public price: overflow capacity prices
        at the elastic rate.
        """
        if tier in self.tier_costs:
            return self.tier_costs[tier]
        if tier == "private":
            return self.private_core_cost
        return self.public_core_cost

    def rate(self, cores: int, tier: str) -> float:
        """Spend rate of *cores* on *tier* (CU/TU)."""
        if cores < 0:
            raise CloudError("cores must be >= 0")
        return cores * self.core_cost(tier)

    def charge(self, cores: int, tier: str, duration_tu: float) -> float:
        """Cost of holding *cores* on *tier* for *duration_tu*."""
        if duration_tu < 0:
            raise CloudError("duration must be >= 0")
        return self.rate(cores, tier) * duration_tu


@dataclass
class Invoice:
    """An itemised record of spend, split by tier."""

    items: list[tuple[float, str, int, float, float]] = field(
        default_factory=list
    )
    by_tier: dict[str, float] = field(default_factory=dict)

    @property
    def private_cu(self) -> float:
        """Spend on the tier named ``private`` (legacy view)."""
        return self.by_tier.get("private", 0.0)

    @property
    def public_cu(self) -> float:
        """Spend on every tier except ``private`` (legacy view)."""
        return sum(
            cu for name, cu in self.by_tier.items() if name != "private"
        )

    @property
    def total_cu(self) -> float:
        return sum(self.by_tier.values())

    def tier_cu(self, tier: str) -> float:
        """Spend charged against one tier so far."""
        return self.by_tier.get(tier, 0.0)

    def add(
        self, time: float, tier: str, cores: int, duration: float, cost: float
    ) -> None:
        """Append one charge line and update the tier subtotal."""
        self.items.append((time, tier, cores, duration, cost))
        self.by_tier[tier] = self.by_tier.get(tier, 0.0) + cost


class CostMeter:
    """Accumulates spend against a :class:`PricingModel`."""

    def __init__(self, pricing: Optional[PricingModel] = None) -> None:
        self.pricing = pricing if pricing is not None else PricingModel()
        self.invoice = Invoice()

    def charge(
        self, time: float, cores: int, tier: str, duration_tu: float
    ) -> float:
        """Record a charge; returns the cost in CU."""
        cost = self.pricing.charge(cores, tier, duration_tu)
        self.invoice.add(time, tier, cores, duration_tu, cost)
        return cost

    @property
    def total_cu(self) -> float:
        return self.invoice.total_cu
