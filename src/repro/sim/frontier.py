"""Cost-vs-deadline frontier sweeps across elastic tier mixes.

The N-tier infrastructure turns "which cloud should we rent?" into a
measurable trade-off: every tier mix (reserved-only, +on-demand,
+serverless, +spot, ...) lands somewhere on a cost/latency plane, and
the interesting mixes are the Pareto-optimal ones -- no other mix is
both cheaper *and* faster.  :func:`run_frontier` runs one repetition
set per mix under common random numbers (same base seed, so every mix
sees the identical arrival process), aggregates cost and latency, and
marks the non-dominated points.

:func:`cheapest_within` then answers the operator's actual question:
"given deadline D on mean turnaround, what is the cheapest stack that
meets it?"  See ``examples/cost_frontier_demo.py`` and the frontier row
in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence

from repro.core.config import PlatformConfig, TierConfig

__all__ = [
    "TierMix",
    "FrontierPoint",
    "default_mixes",
    "burst_base",
    "run_frontier",
    "mark_frontier",
    "cheapest_within",
    "render_frontier",
]


@dataclass(frozen=True)
class TierMix:
    """One candidate tier stack: a label, the stack, per-mix overrides.

    ``overrides`` is merged into the base config via ``with_overrides``
    (e.g. a deeper retry budget for eviction-prone spot mixes).
    """

    name: str
    tiers: tuple[TierConfig, ...]
    overrides: Optional[Mapping[str, Any]] = None

    def apply(self, base: PlatformConfig) -> PlatformConfig:
        """The base config rebuilt around this mix's tier stack."""
        config = base.with_overrides(cloud={"tiers": self.tiers})
        if self.overrides:
            config = config.with_overrides(**dict(self.overrides))
        return config


@dataclass(frozen=True)
class FrontierPoint:
    """One tier mix's aggregate position on the cost/latency plane.

    Metrics are means over the repetition set; ``per_tier_cost`` is the
    mean accumulated cost per tier (the per-tier cost curve data).
    """

    mix: str
    tiers: tuple[str, ...]
    mean_latency: float
    latency_p95: float
    total_cost: float
    cost_per_run: float
    completed_runs: float
    failed_runs: float
    worker_failures: float
    per_tier_cost: dict[str, float] = field(default_factory=dict)
    per_tier_hires: dict[str, float] = field(default_factory=dict)
    on_frontier: bool = False

    def dominates(self, other: "FrontierPoint") -> bool:
        """Pareto dominance: no worse on both axes, better on one."""
        return (
            self.cost_per_run <= other.cost_per_run
            and self.mean_latency <= other.mean_latency
            and (
                self.cost_per_run < other.cost_per_run
                or self.mean_latency < other.mean_latency
            )
        )


def _reserved(cores: int = 624, cost: float = 5.0) -> TierConfig:
    return TierConfig(
        name="private", backend="reserved",
        capacity_cores=cores, core_cost_per_tu=cost,
    )


def _on_demand(cost: float = 50.0) -> TierConfig:
    return TierConfig(
        name="public", backend="on_demand",
        capacity_cores=1_000_000, core_cost_per_tu=cost,
    )


def _serverless() -> TierConfig:
    return TierConfig(
        name="faas", backend="serverless",
        capacity_cores=1_000_000, core_cost_per_tu=35.0,
        invocation_cost=2.0, cold_start_tu=0.25,
        max_cores_per_allocation=16, max_duration_tu=30.0,
    )


def _spot() -> TierConfig:
    return TierConfig(
        name="spot", backend="spot",
        capacity_cores=2048, core_cost_per_tu=10.0,
        eviction_mtbf_tu=60.0, reference_cost_per_tu=50.0,
    )


def default_mixes() -> tuple[TierMix, ...]:
    """The stock frontier: paper baseline plus three elastic variants.

    ``spot_serverless`` is the full three-way stack (reserved + spot +
    serverless): evictions ride the retry path, so it gets a deeper
    retry budget, and tasks too big or too long for the FaaS caps fall
    through to spot.
    """
    deep_retries = {"resilience": {"max_attempts": 5}}
    return (
        TierMix("two_tier", (_reserved(), _on_demand())),
        TierMix("serverless_burst", (_reserved(), _serverless(), _on_demand())),
        TierMix(
            "spot_saver", (_reserved(), _spot(), _on_demand()),
            overrides=deep_retries,
        ),
        TierMix(
            "spot_serverless", (_reserved(), _spot(), _serverless()),
            overrides=deep_retries,
        ),
    )


def burst_base(duration: float = 200.0) -> PlatformConfig:
    """A base config loaded enough to actually spill past the base tier.

    At the paper's default arrival rate the 624 reserved cores absorb
    everything and every mix collapses onto the same point; this base
    (5x the arrival rate, always-scale-out) keeps the elastic tiers hot
    so the frontier separates.  Used by the demo, the frontier tests
    and the CI smoke job.
    """
    from repro.core.config import ScalingAlgorithm

    return PlatformConfig.paper_defaults().with_overrides(
        workload={"mean_interarrival": 0.5},
        scheduler={"scaling": ScalingAlgorithm.ALWAYS},
        simulation={"duration": duration},
    )


def run_frontier(
    base: Optional[PlatformConfig] = None,
    mixes: "Optional[Sequence[TierMix]]" = None,
    repetitions: Optional[int] = None,
    base_seed: int = 0,
    registry: Optional[Any] = None,
) -> list[FrontierPoint]:
    """Run every mix under common random numbers; mark the frontier.

    Each mix's repetition *k* runs with seed ``base_seed + k``, so all
    mixes face identical arrival processes and the cost/latency spread
    is attributable to the tier stacks alone.  Returns one point per
    mix, input order preserved, Pareto-optimal points flagged.
    """
    from repro.sim.session import SimulationSession

    if base is None:
        base = PlatformConfig.paper_defaults()
    if mixes is None:
        mixes = default_mixes()
    points: list[FrontierPoint] = []
    for mix in mixes:
        config = mix.apply(base).validate()
        n = (
            config.simulation.repetitions
            if repetitions is None
            else repetitions
        )
        results = []
        tier_cost: dict[str, float] = {}
        tier_hires: dict[str, float] = {}
        tier_names: tuple[str, ...] = ()
        for k in range(n):
            session = SimulationSession(config, registry=registry)
            results.append(session.run(seed=base_seed + k))
            infra = session.scheduler.infrastructure
            tier_names = tuple(t.name for t in infra.tiers)
            for tier in infra.tiers:
                tier_cost[tier.name] = (
                    tier_cost.get(tier.name, 0.0) + tier.accumulated_cost()
                )
                tier_hires[tier.name] = (
                    tier_hires.get(tier.name, 0.0)
                    + session.scheduler.pools.hires[tier.name]
                )
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731 - local helper
        completed = mean([float(r.completed_runs) for r in results])
        total_cost = mean([r.total_cost for r in results])
        points.append(
            FrontierPoint(
                mix=mix.name,
                tiers=tier_names,
                mean_latency=mean([r.mean_latency for r in results]),
                latency_p95=mean([r.latency_p95 for r in results]),
                total_cost=total_cost,
                cost_per_run=total_cost / completed if completed else 0.0,
                completed_runs=completed,
                failed_runs=mean([float(r.failed_runs) for r in results]),
                worker_failures=mean(
                    [float(r.worker_failures) for r in results]
                ),
                per_tier_cost={k: v / n for k, v in tier_cost.items()},
                per_tier_hires={k: v / n for k, v in tier_hires.items()},
            )
        )
    return mark_frontier(points)


def mark_frontier(points: "Sequence[FrontierPoint]") -> list[FrontierPoint]:
    """The same points with ``on_frontier`` set on non-dominated ones."""
    return [
        replace(
            p,
            on_frontier=not any(
                q.dominates(p) for q in points if q is not p
            ),
        )
        for p in points
    ]


def cheapest_within(
    points: "Sequence[FrontierPoint]", deadline: float
) -> Optional[FrontierPoint]:
    """The cheapest mix whose mean turnaround meets *deadline* (TU).

    None when no mix makes the deadline -- the operator must relax it
    or add capacity.
    """
    eligible = [p for p in points if p.mean_latency <= deadline]
    if not eligible:
        return None
    return min(eligible, key=lambda p: (p.cost_per_run, p.mean_latency))


def render_frontier(points: "Sequence[FrontierPoint]") -> str:
    """A fixed-width table of the frontier (demo / EXPERIMENTS output)."""
    header = (
        f"{'mix':<18} {'tiers':<28} {'lat':>8} {'p95':>8} "
        f"{'CU/run':>10} {'fails':>6}  frontier"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        lines.append(
            f"{p.mix:<18} {'+'.join(p.tiers):<28} "
            f"{p.mean_latency:>8.2f} {p.latency_p95:>8.2f} "
            f"{p.cost_per_run:>10.1f} {p.failed_runs:>6.1f}  "
            f"{'*' if p.on_frontier else ''}"
        )
    return "\n".join(lines)
