"""The Data Broker: knowledge-guided sharding, merging and subtask creation.

Workflow (paper Section III-A.1.ii-iii):

1. a new analysis request arrives with a (possibly huge) input dataset;
2. the broker queries the knowledge base for the most suitable chunk size
   ("The Data Broker will query the SCAN knowledge-base to decide the
   suitable chunk size of input files of tasks whenever there is a new
   GATK task in the SCAN platform");
3. the data sharders split the input accordingly;
4. one analysis subtask (a pipeline run) is submitted per shard;
5. subtask outputs are merged back (VariantsToVCF-style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.broker.merger import merge_descriptors
from repro.broker.sharders import ShardPlan, shard_descriptor
from repro.core.config import BrokerConfig
from repro.genomics.datasets import DatasetDescriptor
from repro.knowledge.advisor import ShardAdvice, ShardAdvisor
from repro.knowledge.kb import SCANKnowledgeBase
from repro.knowledge.plane import KnowledgePlane
from repro.scheduler.rewards import RewardFunction

__all__ = ["DataBroker", "BrokeredJob"]


@dataclass(frozen=True)
class BrokeredJob:
    """One analysis request after broker preparation."""

    dataset: DatasetDescriptor
    plan: ShardPlan
    advice: ShardAdvice

    @property
    def n_subtasks(self) -> int:
        return self.plan.n_shards


class DataBroker:
    """Fragments and merges datasets for parallel analysis."""

    def __init__(
        self,
        kb: SCANKnowledgeBase,
        config: Optional[BrokerConfig] = None,
        plane: "KnowledgePlane | None" = None,
    ) -> None:
        self.kb = kb
        self.config = config if config is not None else BrokerConfig()
        self.config.validate()
        self.advisor = ShardAdvisor(
            kb,
            default_shard_gb=self.config.default_shard_gb,
            min_shard_gb=self.config.min_shard_gb,
            max_shards=self.config.max_shards_per_job,
            plane=plane,
        )

    # -- preparation -------------------------------------------------------
    def prepare(
        self,
        app: str,
        dataset: DatasetDescriptor,
        parallel_workers: int,
        core_cost_per_tu: float,
        reward_fn: RewardFunction,
    ) -> BrokeredJob:
        """Advise a shard size for *dataset* and build the shard plan."""
        if not dataset.format.shardable:
            # Unshardable input: a single subtask over the whole dataset.
            plan = ShardPlan(parent=dataset, shards=(dataset,))
            advice = ShardAdvice(
                shard_gb=dataset.size_gb,
                n_shards=1,
                predicted_task_time=float("nan"),
                predicted_makespan=float("nan"),
                predicted_core_cost=float("nan"),
                predicted_profit=float("nan"),
                source="unshardable",
            )
            return BrokeredJob(dataset=dataset, plan=plan, advice=advice)

        if self.config.use_knowledge_base:
            advice = self.advisor.advise(
                app,
                total_gb=dataset.size_gb,
                parallel_workers=parallel_workers,
                core_cost_per_tu=core_cost_per_tu,
                reward_fn=reward_fn,
            )
        else:
            advice = self.advisor._fixed_advice(
                dataset.size_gb, self.config.default_shard_gb, "fixed"
            )
        plan = shard_descriptor(
            dataset, advice.shard_gb, max_shards=self.config.max_shards_per_job
        )
        return BrokeredJob(dataset=dataset, plan=plan, advice=advice)

    # -- merging ----------------------------------------------------------------
    def merge_outputs(
        self,
        shards: Sequence[DatasetDescriptor],
        name: str = "",
    ) -> DatasetDescriptor:
        """Merge subtask output descriptors (the VariantsToVCF merge)."""
        return merge_descriptors(shards, name=name)
