"""Tests for the SCANPlatform facade."""

import pytest

from repro.core.config import PlatformConfig, BrokerConfig
from repro.core.errors import SCANError
from repro.core.platform import SCANPlatform
from repro.genomics.datasets import DataFormat
from repro.genomics.synth import synthesize_dataset


@pytest.fixture
def platform():
    p = SCANPlatform(PlatformConfig.paper_defaults())
    p.bootstrap_knowledge()
    return p


class TestBootstrap:
    def test_knowledge_seeded(self, platform):
        assert platform.kb.instance_count("gatk") == 7 * 9 * 5
        assert platform.kb.has_profile("gatk")


class TestAnalysisRequest:
    def test_large_dataset_sharded(self, platform):
        ds = synthesize_dataset("wgs", 50.0, DataFormat.FASTQ)
        request = platform.submit_analysis(ds)
        assert request.n_subtasks > 1
        assert not request.is_complete

    def test_runs_to_completion(self, platform):
        ds = synthesize_dataset("sample", 10.0, DataFormat.FASTQ)
        request = platform.submit_analysis(ds)
        platform.run_until_complete(request, limit=50_000)
        assert request.is_complete
        assert request.latency() > 0
        assert request.merged_output is not None
        assert request.merged_output.format is DataFormat.VCF

    def test_merged_output_covers_all_shards(self, platform):
        ds = synthesize_dataset("s", 10.0, DataFormat.FASTQ)
        request = platform.submit_analysis(ds)
        platform.run_until_complete(request, limit=50_000)
        assert request.merged_output.size_gb == pytest.approx(
            sum(s.size_gb * 0.01 for s in request.brokered.plan)
        )

    def test_single_shard_request_output_unmerged(self):
        p = SCANPlatform(
            PlatformConfig.paper_defaults().with_overrides(
                broker=BrokerConfig(use_knowledge_base=False, default_shard_gb=100.0)
            )
        )
        ds = synthesize_dataset("small", 1.0, DataFormat.FASTQ)
        request = p.submit_analysis(ds)
        p.run_until_complete(request, limit=50_000)
        assert request.n_subtasks == 1
        assert request.merged_output is not None

    def test_shards_prefetched_into_filesystem(self, platform):
        ds = synthesize_dataset("wgs", 10.0, DataFormat.FASTQ)
        request = platform.submit_analysis(ds)
        platform.run_until_complete(request, limit=50_000)
        assert platform.stager.staged_count == request.n_subtasks

    def test_request_reward_uses_total_size(self, platform):
        ds = synthesize_dataset("s", 10.0, DataFormat.FASTQ)
        request = platform.submit_analysis(ds)
        platform.run_until_complete(request, limit=50_000)
        expected = platform.reward(request.latency(), 10.0)
        assert platform.request_reward(request) == pytest.approx(expected)

    def test_latency_before_completion_raises(self, platform):
        ds = synthesize_dataset("s", 10.0, DataFormat.FASTQ)
        request = platform.submit_analysis(ds)
        with pytest.raises(SCANError):
            request.latency()


class TestKnowledgeLoop:
    def test_kb_grows_as_tasks_run(self, platform):
        before = platform.kb.instance_count("gatk")
        ds = synthesize_dataset("s", 6.0, DataFormat.FASTQ)
        request = platform.submit_analysis(ds)
        platform.run_until_complete(request, limit=50_000)
        after = platform.kb.instance_count("gatk")
        # 7 stages per shard, all ingested.
        assert after == before + 7 * request.n_subtasks

    def test_kb_records_shard_gb_not_reward_units(self):
        """With 2 GB per reward unit a shard's job size is half its GB;
        the KB's x-axis must still be the shard's GB."""
        p = SCANPlatform(
            PlatformConfig.paper_defaults().with_overrides(
                workload={"size_unit_gb": 2.0}
            )
        )
        request = p.submit_analysis(
            synthesize_dataset("s", 6.0, DataFormat.FASTQ)
        )
        p.run_until_complete(request, limit=50_000)
        profile = p.kb.profile("gatk")
        recorded = sorted(
            obs.input_gb
            for stage in profile.stage_indices
            for obs in profile.stage(stage).observations
        )
        shard_gb = sorted(
            shard.size_gb for shard in request.brokered.plan
            for _ in range(p.app.n_stages)
        )
        assert recorded == shard_gb
        assert all(job.size * 2.0 == pytest.approx(job.input_gb)
                   for job in request.jobs)


class TestMetrics:
    def test_metrics_shape(self, platform):
        ds = synthesize_dataset("s", 6.0, DataFormat.FASTQ)
        request = platform.submit_analysis(ds)
        platform.run_until_complete(request, limit=50_000)
        m = platform.metrics()
        assert m["requests"] == 1.0
        assert m["requests_complete"] == 1.0
        assert m["jobs_completed"] == float(request.n_subtasks)
        assert m["total_cost"] > 0.0
        assert m["staged_files"] == float(request.n_subtasks)

    def test_multiple_requests(self, platform):
        r1 = platform.submit_analysis(synthesize_dataset("a", 4.0, DataFormat.FASTQ))
        r2 = platform.submit_analysis(synthesize_dataset("b", 4.0, DataFormat.FASTQ))
        platform.run_until_complete(r1, limit=50_000)
        platform.run_until_complete(r2, limit=50_000)
        assert r1.is_complete and r2.is_complete
        assert platform.metrics()["requests"] == 2.0
