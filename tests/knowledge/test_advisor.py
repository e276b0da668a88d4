"""Tests for the shard-size advisor."""

import math

import pytest

from repro.apps.gatk import build_gatk_model
from repro.knowledge.advisor import ShardAdvisor
from repro.knowledge.kb import SCANKnowledgeBase
from repro.scheduler.rewards import ThroughputReward, TimeReward


@pytest.fixture
def kb_with_gatk():
    kb = SCANKnowledgeBase()
    kb.bootstrap_from_model(build_gatk_model())
    return kb


@pytest.fixture
def advisor(kb_with_gatk):
    return ShardAdvisor(kb_with_gatk)


class TestFallback:
    def test_no_profile_uses_default(self):
        advisor = ShardAdvisor(SCANKnowledgeBase(), default_shard_gb=2.0)
        advice = advisor.advise(
            "gatk", total_gb=100.0, parallel_workers=25,
            core_cost_per_tu=5.0, reward_fn=TimeReward(),
        )
        assert advice.source == "default"
        # The paper's example: 100 GB at default sizing -> 50 x 2 GB.
        assert advice.n_shards == 50
        assert advice.shard_gb == pytest.approx(2.0)

    def test_default_never_exceeds_max_shards(self):
        advisor = ShardAdvisor(
            SCANKnowledgeBase(), default_shard_gb=0.5, max_shards=10
        )
        advice = advisor.advise(
            "gatk", total_gb=100.0, parallel_workers=4,
            core_cost_per_tu=5.0, reward_fn=TimeReward(),
        )
        assert advice.n_shards == 10


class TestKnowledgeDriven:
    def test_source_is_knowledge_base(self, advisor):
        advice = advisor.advise(
            "gatk", total_gb=20.0, parallel_workers=10,
            core_cost_per_tu=5.0, reward_fn=ThroughputReward(),
        )
        assert advice.source == "knowledge_base"
        assert advice.n_shards >= 1
        assert advice.shard_gb * advice.n_shards == pytest.approx(20.0)

    def test_throughput_reward_prefers_parallelism(self, advisor):
        """With latency-hungry rewards and cheap cores, sharding wins."""
        advice = advisor.advise(
            "gatk", total_gb=40.0, parallel_workers=40,
            core_cost_per_tu=0.01, reward_fn=ThroughputReward(rscale=1e6),
        )
        assert advice.n_shards > 1
        # Makespan with shards must beat the single-shard pipeline time.
        profile = advisor.kb.profile("gatk")
        single_task = sum(
            profile.stage(i).predict(40.0, 1) for i in profile.stage_indices
        )
        assert advice.predicted_makespan < single_task

    def test_zero_reward_minimises_cost(self, advisor):
        """With no reward at stake the cheapest plan (fewest shards, least
        per-task overhead b_i) wins."""
        advice = advisor.advise(
            "gatk", total_gb=16.0, parallel_workers=16,
            core_cost_per_tu=5.0, reward_fn=TimeReward(rmax=1e-9, rpenalty=0.0),
        )
        assert advice.n_shards == 1

    def test_worker_limit_caps_useful_parallelism(self, advisor):
        generous = advisor.advise(
            "gatk", total_gb=32.0, parallel_workers=32,
            core_cost_per_tu=0.01, reward_fn=ThroughputReward(rscale=1e6),
        )
        starved = advisor.advise(
            "gatk", total_gb=32.0, parallel_workers=1,
            core_cost_per_tu=0.01, reward_fn=ThroughputReward(rscale=1e6),
        )
        # With one worker, extra shards only add b_i overhead.
        assert starved.n_shards <= generous.n_shards

    def test_makespan_accounts_for_waves(self, advisor):
        advice = advisor.advise(
            "gatk", total_gb=40.0, parallel_workers=3,
            core_cost_per_tu=0.01, reward_fn=ThroughputReward(rscale=1e6),
        )
        waves = math.ceil(advice.n_shards / 3)
        assert advice.predicted_makespan == pytest.approx(
            waves * advice.predicted_task_time
        )

    def test_candidate_includes_whole_file(self, advisor):
        # total smaller than every grid size: "no sharding" must still work.
        advice = advisor.advise(
            "gatk", total_gb=0.4, parallel_workers=8,
            core_cost_per_tu=5.0, reward_fn=TimeReward(),
        )
        assert advice.n_shards == 1
        assert advice.shard_gb == pytest.approx(0.4)


class TestValidation:
    def test_bad_arguments_rejected(self, advisor):
        with pytest.raises(ValueError):
            advisor.advise("gatk", total_gb=0, parallel_workers=1,
                           core_cost_per_tu=1, reward_fn=TimeReward())
        with pytest.raises(ValueError):
            advisor.advise("gatk", total_gb=1, parallel_workers=0,
                           core_cost_per_tu=1, reward_fn=TimeReward())
        with pytest.raises(ValueError):
            advisor.advise("gatk", total_gb=1, parallel_workers=1,
                           core_cost_per_tu=-1, reward_fn=TimeReward())

    def test_bad_construction_rejected(self, kb_with_gatk):
        with pytest.raises(ValueError):
            ShardAdvisor(kb_with_gatk, default_shard_gb=0)
        with pytest.raises(ValueError):
            ShardAdvisor(kb_with_gatk, max_shards=0)
