"""The fault-injection chaos layer: named, seeded fault streams.

VM crashes are exponential lifetimes (memoryless, the standard
availability model).  Real elastic clouds fail in more ways: transient
provisioning errors, instances that die while booting, heavy-tailed
stragglers that dominate tail latency, and staging corruption that
silently invalidates completed work (the FaaS variant-calling and
GATK-Spark studies in PAPERS.md report all four).

:class:`FaultPlan` is the declarative description of a fault mix;
:class:`FaultInjector` samples it at runtime.  Every fault class draws
from its *own* named RNG stream (via
:class:`~repro.desim.rng.RandomStreams`), so enabling one class never
perturbs another's draws -- and a plan with every knob at zero is
bit-identical to running without the chaos layer at all.  VM crash
lifetimes keep the seed's ``"failures"`` stream name so crash-only runs
reproduce the seed's crash draws exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.errors import CloudError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.config import CloudConfig, FaultConfig
    from repro.desim.rng import RandomStreams

__all__ = ["FaultPlan", "FaultInjector"]

#: Stream names, one per fault class.  ``"failures"`` is the seed's crash
#: stream name, preserved so crash-only plans replay identically.
CRASH_STREAM = "failures"
BOOT_STREAM = "faults.boot"
DEPLOY_STREAM = "faults.deploy"
STRAGGLER_STREAM = "faults.straggler"
CORRUPT_STREAM = "faults.corrupt"
#: Spot-tier eviction lifetimes; a dedicated stream so adding a spot
#: tier never perturbs any other fault class's draws.
SPOT_STREAM = "faults.spot"


@dataclass(frozen=True)
class FaultPlan:
    """A validated, declarative fault mix (mirrors ``FaultConfig``)."""

    #: Mean time between VM crashes (TU); None disables crashes.
    mtbf_tu: Optional[float] = None
    #: Public-tier crash MTBF; defaults to ``mtbf_tu``.
    public_mtbf_tu: Optional[float] = None
    #: Probability a deployed VM dies during boot.
    p_boot_fail: float = 0.0
    #: Probability a CELAR deploy fails transiently (private tier).
    p_deploy_fail: float = 0.0
    #: Public-tier deploy failure probability; defaults to ``p_deploy_fail``.
    p_deploy_fail_public: Optional[float] = None
    #: Probability a task execution straggles.
    p_straggler: float = 0.0
    #: Pareto tail index of the straggler slowdown.
    straggler_alpha: float = 1.5
    #: Minimum slowdown factor of a straggler.
    straggler_min_factor: float = 2.0
    #: Probability a completed stage is retroactively corrupt.
    p_corrupt: float = 0.0

    def __post_init__(self) -> None:
        if self.mtbf_tu is not None and self.mtbf_tu <= 0:
            raise CloudError("mtbf_tu must be positive or None")
        if self.public_mtbf_tu is not None and self.public_mtbf_tu <= 0:
            raise CloudError("public_mtbf_tu must be positive or None")
        for name in ("p_boot_fail", "p_deploy_fail", "p_straggler", "p_corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise CloudError(f"{name} must lie in [0, 1], got {p}")
        if self.p_deploy_fail_public is not None and not (
            0.0 <= self.p_deploy_fail_public <= 1.0
        ):
            raise CloudError("p_deploy_fail_public must lie in [0, 1]")
        if self.straggler_alpha <= 1.0:
            raise CloudError("straggler_alpha must exceed 1")
        if self.straggler_min_factor < 1.0:
            raise CloudError("straggler_min_factor must be >= 1")

    def deploy_fail_probability(self, tier: str) -> float:
        """The deploy-failure probability for *tier*.

        The public-specific override applies to every tier except the
        one literally named ``private`` -- elastic tiers (public, spot,
        serverless) share the elastic provisioning failure profile.
        """
        if tier != "private" and self.p_deploy_fail_public is not None:
            return self.p_deploy_fail_public
        return self.p_deploy_fail

    @property
    def any_active(self) -> bool:
        """Whether any fault stream can ever fire."""
        return (
            self.mtbf_tu is not None
            or self.p_boot_fail > 0
            or self.p_deploy_fail > 0
            or (self.p_deploy_fail_public or 0) > 0
            or self.p_straggler > 0
            or self.p_corrupt > 0
        )

    @staticmethod
    def from_config(
        faults: "FaultConfig", cloud: "CloudConfig | None" = None
    ) -> "FaultPlan":
        """Build a plan from config sections.

        ``FaultConfig.mtbf_tu`` wins; the legacy ``CloudConfig.vm_mtbf_tu``
        knob is honoured when the fault section leaves crashes unset.
        """
        mtbf = faults.mtbf_tu
        if mtbf is None and cloud is not None:
            mtbf = cloud.vm_mtbf_tu
        return FaultPlan(
            mtbf_tu=mtbf,
            public_mtbf_tu=faults.public_mtbf_tu,
            p_boot_fail=faults.p_boot_fail,
            p_deploy_fail=faults.p_deploy_fail,
            p_deploy_fail_public=faults.p_deploy_fail_public,
            p_straggler=faults.p_straggler,
            straggler_alpha=faults.straggler_alpha,
            straggler_min_factor=faults.straggler_min_factor,
            p_corrupt=faults.p_corrupt,
        )


class FaultInjector:
    """Samples a :class:`FaultPlan` at runtime, one RNG stream per class.

    Parameters
    ----------
    plan:
        The fault mix to inject.
    streams:
        The session's named random streams.  Required whenever any
        stream is active.
    """

    def __init__(
        self,
        plan: FaultPlan,
        streams: "RandomStreams | None" = None,
    ) -> None:
        self.plan = plan
        self._streams = streams
        self._crash_rng = None
        if plan.mtbf_tu is not None:
            if streams is None:
                raise CloudError("crash injection needs RandomStreams")
            self._crash_rng = streams.stream(CRASH_STREAM)
        needs_streams = (
            plan.p_boot_fail > 0
            or plan.p_deploy_fail > 0
            or (plan.p_deploy_fail_public or 0) > 0
            or plan.p_straggler > 0
            or plan.p_corrupt > 0
        )
        if needs_streams and streams is None:
            raise CloudError("probabilistic fault streams need RandomStreams")
        # Per-class injection counters (what the chaos layer actually did).
        self.boot_failures_injected = 0
        self.deploy_failures_injected = 0
        self.stragglers_injected = 0
        self.corruptions_injected = 0
        self.evictions_drawn = 0

    # -- crashes ---------------------------------------------------------------
    @property
    def crashes_enabled(self) -> bool:
        return self._crash_rng is not None

    def mtbf_for(self, tier: str) -> float:
        """The tier's mean time between crashes (TU).

        The tier literally named ``private`` gets ``mtbf_tu``; every other
        tier (public, spot, serverless, ...) shares the elastic failure
        profile, ``public_mtbf_tu`` (``mtbf_tu`` when unset).
        """
        plan = self.plan
        if tier == "private" or plan.public_mtbf_tu is None:
            return plan.mtbf_tu
        return plan.public_mtbf_tu

    def draw_lifetime(self, tier: str) -> float:
        """One VM's time-to-failure from boot (TU): exponential, memoryless."""
        if self._crash_rng is None:
            raise CloudError("crash injection is not enabled")
        return float(self._crash_rng.exponential(self.mtbf_for(tier)))

    # -- spot evictions --------------------------------------------------------
    def draw_eviction(self, mtbf_tu: float) -> float:
        """One spot worker's time-to-eviction (TU).

        Exponential with the tier's (price-scaled) eviction MTBF, drawn
        from the dedicated ``faults.spot`` stream so spot tiers never
        perturb crash/boot/deploy/straggler/corruption draws.
        """
        if mtbf_tu <= 0:
            raise CloudError("eviction MTBF must be positive")
        if self._streams is None:
            raise CloudError("spot evictions need RandomStreams")
        self.evictions_drawn += 1
        return float(self._streams.stream(SPOT_STREAM).exponential(mtbf_tu))

    # -- probabilistic streams ------------------------------------------------
    def _bernoulli(self, stream_name: str, p: float) -> bool:
        if p <= 0.0:
            return False
        assert self._streams is not None
        return bool(self._streams.stream(stream_name).random() < p)

    def boot_fails(self, tier: str) -> bool:
        """Whether this boot sequence dies before reaching READY."""
        hit = self._bernoulli(BOOT_STREAM, self.plan.p_boot_fail)
        if hit:
            self.boot_failures_injected += 1
        return hit

    def deploy_fails(self, tier: str) -> bool:
        """Whether this deploy request bounces transiently."""
        hit = self._bernoulli(
            DEPLOY_STREAM, self.plan.deploy_fail_probability(tier)
        )
        if hit:
            self.deploy_failures_injected += 1
        return hit

    @property
    def stragglers_enabled(self) -> bool:
        return self.plan.p_straggler > 0

    def straggler_multiplier(self) -> float:
        """This task's duration multiplier (1.0 for a healthy task).

        Straggling tasks slow down by ``min_factor * (1 + Pareto(alpha))``
        -- heavy-tailed, matching the observed dominance of a few extreme
        stragglers over tail latency.
        """
        if not self._bernoulli(STRAGGLER_STREAM, self.plan.p_straggler):
            return 1.0
        assert self._streams is not None
        draw = self._streams.stream(STRAGGLER_STREAM).pareto(
            self.plan.straggler_alpha
        )
        self.stragglers_injected += 1
        return self.plan.straggler_min_factor * (1.0 + float(draw))

    def corrupts(self) -> bool:
        """Whether this completed stage is retroactively invalid."""
        hit = self._bernoulli(CORRUPT_STREAM, self.plan.p_corrupt)
        if hit:
            self.corruptions_injected += 1
        return hit
