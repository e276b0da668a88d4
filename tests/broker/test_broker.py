"""Tests for the Data Broker."""

import pytest

from repro.apps.gatk import build_gatk_model
from repro.broker.broker import DataBroker
from repro.core.config import BrokerConfig
from repro.genomics.datasets import DataFormat, DatasetDescriptor
from repro.knowledge.kb import SCANKnowledgeBase
from repro.scheduler.rewards import ThroughputReward, TimeReward


@pytest.fixture
def kb():
    kb = SCANKnowledgeBase()
    kb.bootstrap_from_model(build_gatk_model())
    return kb


@pytest.fixture
def broker(kb):
    return DataBroker(kb)


def fastq(size_gb=100.0, name="wgs"):
    return DatasetDescriptor.from_size(name, DataFormat.FASTQ, size_gb)


class TestPrepare:
    def test_kb_driven_plan(self, broker):
        brokered = broker.prepare(
            "gatk", fastq(), parallel_workers=25,
            core_cost_per_tu=5.0, reward_fn=ThroughputReward(),
        )
        assert brokered.advice.source == "knowledge_base"
        assert brokered.n_subtasks == brokered.plan.n_shards
        assert brokered.plan.total_size_gb() == pytest.approx(100.0)

    def test_fixed_policy_when_kb_disabled(self, kb):
        broker = DataBroker(
            kb, config=BrokerConfig(use_knowledge_base=False, default_shard_gb=2.0)
        )
        brokered = broker.prepare(
            "gatk", fastq(), parallel_workers=25,
            core_cost_per_tu=5.0, reward_fn=TimeReward(),
        )
        # The evaluation's fixed sizing: "the inputs will be 2GB for each task".
        assert brokered.n_subtasks == 50
        assert brokered.advice.source == "fixed"

    def test_default_when_no_profile(self):
        broker = DataBroker(SCANKnowledgeBase())
        brokered = broker.prepare(
            "unknown-app", fastq(), parallel_workers=10,
            core_cost_per_tu=5.0, reward_fn=TimeReward(),
        )
        assert brokered.advice.source == "default"

    def test_unshardable_input_single_subtask(self, broker):
        image = DatasetDescriptor.from_size("img", DataFormat.TIFF, 8.0)
        brokered = broker.prepare(
            "cellprofiler", image, parallel_workers=10,
            core_cost_per_tu=5.0, reward_fn=TimeReward(),
        )
        assert brokered.n_subtasks == 1
        assert brokered.advice.source == "unshardable"

    def test_shard_plan_returned(self, kb):
        broker = DataBroker(
            kb,
            config=BrokerConfig(use_knowledge_base=False, default_shard_gb=25.0),
        )
        brokered = broker.prepare(
            "gatk", fastq(), parallel_workers=4,
            core_cost_per_tu=5.0, reward_fn=TimeReward(),
        )
        shards = list(brokered.plan)
        assert len(shards) == brokered.n_subtasks == 4
        assert all(shard.parent == "wgs" for shard in shards)
        assert [shard.size_gb for shard in shards] == [25.0] * 4


class TestMergeOutputs:
    def test_merge_returns_merged_descriptor(self, kb):
        broker = DataBroker(kb)
        shards = [
            DatasetDescriptor.from_size(f"out{i}", DataFormat.VCF, 0.1)
            for i in range(3)
        ]
        merged = broker.merge_outputs(shards, name="final")
        assert merged.name == "final"
        assert merged.size_gb == pytest.approx(0.3)
        assert merged.records == sum(s.records for s in shards)
