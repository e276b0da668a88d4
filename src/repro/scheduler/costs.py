"""The tiered cost function (paper Section III-A.2).

"The cost function consists of tiers, representing a class of resources
that can be hired at a given price.  For example ... their institution's
private cloud as a tier of resources at negligible cost, their University's
private cloud as a tier with higher cost with availability bounded by the
available physical [machines]."

Generalised to N tiers: the *base* tier (first non-elastic tier of the
stack, the paper's private cloud) anchors every premium computation, and
the elastic overflow reference defaults to the cheapest elastic tier (the
paper's public cloud).
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.infrastructure import CloudTier, Infrastructure

__all__ = ["TieredCostFunction"]


class TieredCostFunction:
    """Cost queries over the tiered infrastructure.

    Wraps the live :class:`Infrastructure` so scheduling decisions see the
    *current* marginal price: base-tier cores while they last, the
    elastic premium after that.
    """

    def __init__(self, infrastructure: Infrastructure) -> None:
        self.infrastructure = infrastructure

    def _overflow_tier(self) -> CloudTier:
        """The elastic reference tier: cheapest elastic, else the last."""
        tier = self.infrastructure.cheapest_elastic()
        return tier if tier is not None else self.infrastructure.tiers[-1]

    def core_cost(self, tier) -> float:
        """Per-core price of one named tier (CU per core per TU)."""
        return self.infrastructure.tier(tier).core_cost_per_tu

    @property
    def base_core_cost(self) -> float:
        """The base (reserved) tier's price."""
        return self.infrastructure.base.core_cost_per_tu

    @property
    def private_core_cost(self) -> float:
        """Legacy name for :attr:`base_core_cost` (audit records keep it)."""
        return self.base_core_cost

    @property
    def public_core_cost(self) -> float:
        """The elastic overflow reference price (cheapest elastic tier)."""
        return self._overflow_tier().core_cost_per_tu

    def marginal_core_cost(self, cores: int) -> float:
        """Per-core price of the cheapest tier that can fit *cores* now."""
        tier = self.infrastructure.place(cores)
        if tier is None:
            # Every tier exhausted; quote the elastic reference (the
            # elastic price is the scheduling-relevant signal even when
            # momentarily full).
            return self.public_core_cost
        return self.infrastructure.tier(tier).core_cost_per_tu

    def premium(
        self,
        cores: int,
        duration_tu: float,
        tier: Optional[str] = None,
        startup_penalty_tu: float = 0.0,
    ) -> float:
        """Extra cost of *tier* over the base tier for the same work.

        This is what predictive scaling weighs against the delay cost: the
        work will be done either way; hiring elastic capacity *now* rather
        than waiting for a base-tier core costs the price difference (plus
        the boot overhead of the new instance).  ``tier=None`` quotes the
        elastic overflow reference.
        """
        rate = (
            self._overflow_tier().core_cost_per_tu
            if tier is None
            else self.infrastructure.tier(tier).core_cost_per_tu
        )
        diff = rate - self.base_core_cost
        return cores * (diff * duration_tu + rate * startup_penalty_tu)
