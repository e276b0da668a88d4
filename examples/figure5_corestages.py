#!/usr/bin/env python
"""Regenerate Figure 5: reward-to-cost ratio vs. total core-stages per run.

The paper's Figure 5 plots the reward-to-cost ratio achieved against the
cores employed per pipeline run for the dynamically-scaled heterogeneous
configuration (best ratio 3.11).  We sweep constant execution plans across
the 6-24 core-stage range and add the fully dynamic (greedy-allocated)
point the paper crowns.

Run:  python examples/figure5_corestages.py
"""

from repro.analysis.stats import aggregate_runs
from repro.apps.base import ExecutionPlan
from repro.core.config import (
    AllocationAlgorithm,
    PlatformConfig,
    RewardScheme,
    ScalingAlgorithm,
)
from repro.sim.builder import FixedPlanBuilder
from repro.sim.report import render_table
from repro.sim.session import SimulationSession

PLANS = (
    ExecutionPlan((1, 1, 1, 1, 1, 1, 1)),
    ExecutionPlan((2, 1, 1, 1, 2, 1, 1)),
    ExecutionPlan((2, 1, 2, 2, 2, 1, 1)),
    ExecutionPlan((2, 1, 2, 2, 4, 1, 1)),
    ExecutionPlan((4, 1, 2, 2, 4, 1, 1)),
    ExecutionPlan((4, 1, 4, 4, 4, 1, 1)),
    ExecutionPlan((4, 1, 4, 4, 8, 1, 1)),
    ExecutionPlan((8, 1, 4, 4, 8, 1, 1)),
)
REPS = 3


def make_config(allocation: AllocationAlgorithm) -> PlatformConfig:
    return PlatformConfig.paper_defaults().with_overrides(
        simulation={"duration": 600.0},
        reward={"scheme": RewardScheme.THROUGHPUT},
        workload={"mean_interarrival": 2.5},
        scheduler={
            "allocation": allocation,
            "scaling": ScalingAlgorithm.PREDICTIVE,
            "repool_allowed": True,
        },
    )


def main() -> None:
    rows = []
    for plan in PLANS:
        config = make_config(AllocationAlgorithm.BEST_CONSTANT)
        session = SimulationSession(
            config, builder=FixedPlanBuilder(config, plan)
        )
        runs = [session.run(seed=2000 + k) for k in range(REPS)]
        stats = aggregate_runs([r.metrics() for r in runs])
        rows.append(
            [
                plan.total_cores,
                stats["reward_to_cost"],
                stats["mean_latency"],
            ]
        )
        print(
            f"  plan {tuple(plan.threads)}: core-stages={plan.total_cores:2d} "
            f"ratio={stats['reward_to_cost'].mean:.2f}"
        )

    session = SimulationSession(make_config(AllocationAlgorithm.GREEDY))
    runs = [session.run(seed=2000 + k) for k in range(REPS)]
    dynamic = aggregate_runs([r.metrics() for r in runs])
    rows.append(
        [
            f"dynamic ({dynamic['mean_core_stages'].mean:.1f})",
            dynamic["reward_to_cost"],
            dynamic["mean_latency"],
        ]
    )

    print()
    print(
        render_table(
            ["core-stages/run", "reward-to-cost", "latency (TU)"],
            rows,
            title=(
                "Figure 5: reward-to-cost ratio vs. cores per pipeline run "
                "(throughput reward, dynamic scaling, heterogeneous workers)"
            ),
            precision=2,
        )
    )
    print(
        "\nExpected shape: the ratio rises to a peak at moderate core-stages"
        "\nand falls once extra cores stop paying for themselves (the paper's"
        "\npeak is 3.11 for the dynamic heterogeneous configuration)."
    )


if __name__ == "__main__":
    main()
