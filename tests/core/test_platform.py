"""Tests for the SCANPlatform facade.

``fixtures/facade_golden.json`` pins the facade's output on the presets
whose wiring the builder-backed assembly must leave untouched.
Regenerate it (only for an intentional behaviour change) with::

    PYTHONPATH=src python -m tests.core.test_platform
"""

import gc
import json
import weakref
from pathlib import Path

import pytest

from repro.core.config import PlatformConfig, BrokerConfig, TierConfig
from repro.core.errors import SCANError
from repro.core.platform import SCANPlatform
from repro.core.presets import make_preset, preset_names
from repro.desim.engine import Environment
from repro.desim.rng import RandomStreams
from repro.genomics.datasets import DataFormat, DatasetDescriptor
from repro.genomics.synth import synthesize_dataset
from repro.sim.builder import PlatformBuilder

FACADE_GOLDEN = Path(__file__).parent / "fixtures" / "facade_golden.json"

#: Presets whose facade runs must stay byte-identical to the fixture.
GOLDEN_PRESETS = (
    "paper", "busy", "chaos", "observed", "overnight", "smoke", "throughput",
)

#: Three requests (GB each) submitted at t=0 and run to ``GOLDEN_UNTIL``.
GOLDEN_REQUESTS_GB = (6.0, 25.0, 3.0)
GOLDEN_UNTIL = 400.0


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


def _wiring(infrastructure, scheduler, injector, refitter) -> dict:
    return {
        "tiers": [tier.name for tier in infrastructure.tiers],
        "workflow": scheduler.workflow.name,
        "drifted": scheduler.actual_app is not scheduler.app,
        "faults": injector is not None,
        "per_tier": refitter.per_tier if refitter is not None else None,
    }


class TestBuilderAgreement:
    """The facade is assembled by the session's builder, so every preset
    wires the same deployment either way."""

    @pytest.mark.parametrize("preset", preset_names())
    def test_facade_wiring_matches_builder(self, preset):
        config = make_preset(preset)
        platform = SCANPlatform(config)
        built = PlatformBuilder(config).build(
            Environment(), RandomStreams(config.simulation.seed)
        )
        assert _wiring(
            platform.infrastructure,
            platform.scheduler,
            platform.injector,
            platform.refitter,
        ) == _wiring(
            built.infrastructure, built.scheduler, built.injector, built.refitter
        )

    def test_fanout_request_runs_the_dag(self):
        platform = SCANPlatform(make_preset("fanout"))
        platform.bootstrap_knowledge()
        request = platform.submit_analysis(
            synthesize_dataset("s", 4.0, DataFormat.FASTQ)
        )
        platform.run_until_complete(request, limit=50_000)
        assert platform.workflow is not None
        assert all(job.workflow is platform.workflow for job in request.jobs)
        # The merged result is the terminal node's output (Cytoscape CSV),
        # not the entry app's BAM.
        assert request.merged_output.format is DataFormat.CSV


class TestBrokerAdvice:
    def test_advice_reads_the_built_base_tier(self):
        base = PlatformConfig.paper_defaults()
        legacy = base.with_overrides(cloud={"private_cores": 64})
        tiered = base.with_overrides(cloud={"tiers": (
            TierConfig(name="private", backend="reserved",
                       capacity_cores=64, core_cost_per_tu=5.0),
            TierConfig(name="public", backend="on_demand",
                       capacity_cores=1_000_000, core_cost_per_tu=50.0),
        )})
        advice = []
        for config in (legacy, tiered):
            platform = SCANPlatform(config)
            platform.bootstrap_knowledge()
            request = platform.submit_analysis(
                synthesize_dataset("wgs", 200.0, DataFormat.FASTQ)
            )
            advice.append(str(request.brokered.advice))
        assert advice[0] == advice[1]


def _facade_capture(preset: str) -> dict:
    platform = SCANPlatform(make_preset(preset))
    platform.bootstrap_knowledge()
    for i, size_gb in enumerate(GOLDEN_REQUESTS_GB):
        platform.submit_analysis(
            DatasetDescriptor.from_size(f"req{i}", DataFormat.FASTQ, size_gb)
        )
    platform.run(until=GOLDEN_UNTIL)
    return {
        "metrics": platform.metrics(),
        "jobs": [
            [job.name, job.completed_at, job.input_gb]
            for request in platform.requests
            for job in request.jobs
        ],
    }


@pytest.mark.parametrize("preset", GOLDEN_PRESETS)
def test_facade_run_matches_golden(preset):
    expected = json.loads(FACADE_GOLDEN.read_text())[preset]
    actual = _facade_capture(preset)
    assert json.dumps(actual, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


@pytest.mark.parametrize("preset", ["paper", "chaos", "fanout"])
def test_a_closed_dropped_facade_dies_without_the_collector(preset):
    """``close`` tears the deployment down as a session run's end does,
    so nothing but reference counting is needed to free it -- the
    knowledge base's triple store included, which holds the ontology's
    only copy of its vocabulary."""
    gc.collect()
    gc.disable()
    try:
        platform = SCANPlatform(make_preset(preset))
        platform.bootstrap_knowledge()
        request = platform.submit_analysis(
            DatasetDescriptor.from_size("wgs", DataFormat.FASTQ, 50.0)
        )
        platform.run(until=3.0)
        scheduler = platform.scheduler
        pools = scheduler.pools
        assert scheduler._executing  # work is in flight at teardown
        workers = [*pools.idle_workers, *pools.busy_workers]
        refs = {
            name: weakref.ref(part)
            for name, part in (
                ("platform", platform),
                ("env", platform.env),
                ("scheduler", scheduler),
                ("pools", pools),
                ("stager", platform.stager),
                ("kb", platform.kb),
                ("store", platform.kb.ontology.store),
                ("job", request.jobs[-1]),
                ("worker", workers[0]),
            )
        }
        platform.close()
        assert pools.on_available is None
        del platform, scheduler, pools, workers, request
        assert sorted(n for n, ref in refs.items() if ref() is not None) == []
        assert gc.collect() == 0
    finally:
        gc.enable()


if __name__ == "__main__":  # regeneration entry point
    out = {name: _facade_capture(name) for name in GOLDEN_PRESETS}
    FACADE_GOLDEN.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"regenerated {FACADE_GOLDEN}")
