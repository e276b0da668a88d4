"""Ablation: the Data Broker's shard-size policy.

Compares, on the full platform facade, three ways of preparing a large
WGS input (paper Section III-A.1):

- **kb-advised**: the knowledge-base-driven advisor picks the shard size;
- **fixed-2gb**: the evaluation's constant ("the inputs will be 2GB for
  each task");
- **no-sharding**: one monolithic pipeline run.

Reported: request latency, shard count, platform cost.  Sharding must cut
request latency massively (that is the platform's reason to exist); the
KB-advised plan must be no worse than the fixed plan on the advisor's own
profit objective.
"""

from __future__ import annotations

import pytest

from repro.core.config import BrokerConfig, PlatformConfig, RewardScheme
from repro.core.platform import SCANPlatform
from repro.genomics.datasets import DataFormat
from repro.genomics.synth import synthesize_dataset
from repro.sim.report import render_table

INPUT_GB = 60.0


def run_policy(broker_config: BrokerConfig):
    config = PlatformConfig.paper_defaults().with_overrides(
        broker=broker_config,
        reward={"scheme": RewardScheme.THROUGHPUT},
    )
    platform = SCANPlatform(config, kb_sample_every=10)
    platform.bootstrap_knowledge()
    request = platform.submit_analysis(
        synthesize_dataset("wgs-ablation", INPUT_GB, DataFormat.FASTQ)
    )
    platform.run_until_complete(request, limit=1e6)
    return {
        "n_shards": request.n_subtasks,
        "latency": request.latency(),
        "cost": platform.scheduler.total_cost(),
        "reward": platform.request_reward(request),
    }


POLICIES = (
    ("kb-advised", BrokerConfig(use_knowledge_base=True)),
    ("fixed-2gb", BrokerConfig(use_knowledge_base=False, default_shard_gb=2.0)),
    ("no-sharding", BrokerConfig(use_knowledge_base=False, default_shard_gb=INPUT_GB)),
)


def run_ablation():
    return [(name, run_policy(config)) for name, config in POLICIES]


def test_shard_policy_ablation(print_header, benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    results = dict(rows)

    print_header(
        f"Ablation -- shard-size policy for one {INPUT_GB:.0f} GB WGS request"
    )
    print(
        render_table(
            ["policy", "shards", "latency (TU)", "cost (CU)", "reward (CU)"],
            [
                [name, r["n_shards"], round(r["latency"], 1),
                 round(r["cost"], 0), round(r["reward"], 0)]
                for name, r in rows
            ],
        )
    )

    # Sharding exists to parallelise: both sharded policies crush the
    # monolithic latency.
    assert results["fixed-2gb"]["latency"] < 0.25 * results["no-sharding"]["latency"]
    assert results["kb-advised"]["latency"] < 0.5 * results["no-sharding"]["latency"]

    # The paper's example arithmetic: 60 GB at 2 GB per task = 30 subtasks.
    assert results["fixed-2gb"]["n_shards"] == 30
    assert results["no-sharding"]["n_shards"] == 1

    # The KB-advised plan optimises reward - cost; it must not lose to the
    # fixed heuristic on that objective by more than noise.
    def profit(r):
        return r["reward"] - r["cost"]

    assert profit(results["kb-advised"]) >= profit(results["fixed-2gb"]) - 0.1 * abs(
        profit(results["fixed-2gb"])
    )
