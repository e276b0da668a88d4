"""Behaviour-preservation proof for the control-plane refactor.

``fixtures/golden_sweep.json`` was captured BEFORE the plugin-registry /
event-bus / builder refactor, straight off the old constructor-threaded
wiring.  These tests re-run the identical sweeps through the refactored
stack and demand byte-for-byte equality of the canonical row dump -- both
with everything off (the hard no-subscriber fast path) and with telemetry
and chaos on (the busiest observer configuration).

Regenerate (only when an *intentional* behaviour change lands)::

    PYTHONPATH=src python -m tests.sim.test_golden_equivalence
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import PlatformConfig, ScalingAlgorithm, TierConfig
from repro.sim.sweep import SweepSpec, run_sweep

FIXTURE = Path(__file__).parent / "fixtures" / "golden_sweep.json"

SPEC = SweepSpec(
    scaling=(ScalingAlgorithm.ALWAYS, ScalingAlgorithm.NEVER),
    mean_interarrival=(2.5, 3.0),
)


def _base(**overrides) -> PlatformConfig:
    cfg = PlatformConfig.paper_defaults().with_overrides(
        simulation={"duration": 60.0, "repetitions": 2}
    )
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    return cfg


def _variants() -> dict[str, PlatformConfig]:
    return {
        "plain": _base(),
        "telemetry_chaos": _base(
            telemetry={"enabled": True},
            faults={
                "mtbf_tu": 40.0,
                "p_boot_fail": 0.05,
                "p_deploy_fail": 0.05,
                "p_straggler": 0.1,
                "p_corrupt": 0.02,
            },
            resilience={"max_attempts": 3},
        ),
    }


#: Predictive hire-or-wait on a four-tier stack (reserved, spot,
#: serverless, on-demand) under the chaos faults: the only sweep here
#: whose rows depend on ``WorkerPools.estimate_wait``'s answers (ALWAYS
#: and NEVER never consult the wait estimate).
TIERS_SPEC = SweepSpec(
    scaling=(ScalingAlgorithm.PREDICTIVE,),
    mean_interarrival=(2.5, 3.0),
)


def _tiers_predictive() -> PlatformConfig:
    return _base(
        cloud={
            "tiers": (
                TierConfig(
                    name="private", backend="reserved",
                    capacity_cores=192, core_cost_per_tu=5.0,
                ),
                TierConfig(
                    name="spot", backend="spot",
                    capacity_cores=96, core_cost_per_tu=10.0,
                    eviction_mtbf_tu=60.0, reference_cost_per_tu=50.0,
                ),
                TierConfig(
                    name="faas", backend="serverless",
                    capacity_cores=16, core_cost_per_tu=35.0,
                    invocation_cost=2.0, cold_start_tu=0.25,
                    max_cores_per_allocation=8, max_duration_tu=30.0,
                ),
                TierConfig(
                    name="public", backend="on_demand",
                    capacity_cores=1_000_000, core_cost_per_tu=50.0,
                ),
            ),
        },
        faults={
            "mtbf_tu": 40.0,
            "p_boot_fail": 0.05,
            "p_deploy_fail": 0.05,
            "p_straggler": 0.1,
            "p_corrupt": 0.02,
        },
        resilience={"max_attempts": 5},
    )


def _canonical(config: PlatformConfig, spec: SweepSpec = SPEC) -> str:
    rows = run_sweep(config, spec, base_seed=0)
    return json.dumps([r.as_flat_dict() for r in rows], sort_keys=True)


class TestGoldenSweepEquivalence:
    def _golden(self) -> dict[str, str]:
        return json.loads(FIXTURE.read_text())

    def test_plain_variant_byte_identical(self):
        assert _canonical(_variants()["plain"]) == self._golden()["plain"]

    def test_telemetry_chaos_variant_byte_identical(self):
        assert (
            _canonical(_variants()["telemetry_chaos"])
            == self._golden()["telemetry_chaos"]
        )

    def test_tiers_predictive_byte_identical(self):
        assert (
            _canonical(_tiers_predictive(), TIERS_SPEC)
            == self._golden()["tiers_predictive"]
        )


class TestStreamingSinkEquivalence:
    """The streaming result ledger must not perturb a single byte.

    Same golden fixture, but every repetition now round-trips through an
    on-disk JSONL ledger and the incremental aggregator -- serially and
    across a 4-worker process pool, plain and under the busiest
    telemetry+chaos configuration.  Byte-equality here is what licenses
    the resume path: rows rebuilt from persisted records are
    indistinguishable from rows that never left memory.
    """

    @pytest.mark.parametrize("variant", ["plain", "telemetry_chaos"])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_streamed_rows_byte_identical(self, tmp_path, variant, jobs):
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        golden = json.loads(FIXTURE.read_text())[variant]
        config = _variants()[variant]
        store = ResultStore(open_ledger(str(tmp_path / "ledger.jsonl")))
        try:
            rows = run_sweep(
                config, SPEC, base_seed=0, jobs=jobs, results=store
            )
        finally:
            store.close()
        streamed = json.dumps(
            [r.as_flat_dict() for r in rows], sort_keys=True
        )
        assert streamed == golden


class TestServicePlaneEquivalence:
    """Routing work through the service plane must not perturb the sim.

    A single-tenant FIFO deployment pops jobs in exactly the order they
    were submitted, and ``pump()`` only pops and calls
    ``submit_analysis`` -- no simulated time passes.  So push-all ->
    pump-all -> run must be byte-identical to the in-process submit-all
    -> run path on the same platform config and seed.
    """

    DATASETS = [("eq-a", 4.0), ("eq-b", 9.0), ("eq-c", 2.5), ("eq-d", 6.0)]
    UNTIL = 2_000.0

    def _direct(self) -> str:
        from repro.core.platform import SCANPlatform
        from repro.genomics.datasets import DataFormat, DatasetDescriptor

        platform = SCANPlatform(_base())
        platform.bootstrap_knowledge()
        for name, size_gb in self.DATASETS:
            platform.submit_analysis(
                DatasetDescriptor.from_size(name, DataFormat.FASTQ, size_gb)
            )
        platform.run(until=self.UNTIL)
        return json.dumps(platform.metrics(), sort_keys=True, default=str)

    def _via_service_plane(self) -> str:
        from repro.core.platform import SCANPlatform
        from repro.service import ServiceConfig, ServicePlane

        platform = SCANPlatform(_base())
        platform.bootstrap_knowledge()
        plane = ServicePlane(
            platform,
            config=ServiceConfig(priority_strategy="fifo", store="memory"),
        )
        for name, size_gb in self.DATASETS:
            decision, _job = plane.submit("tenant-0", name=name,
                                          size_gb=size_gb)
            assert decision.accepted
        plane.pump()
        platform.run(until=self.UNTIL)
        plane.reconcile()
        return json.dumps(platform.metrics(), sort_keys=True, default=str)

    def test_single_tenant_run_byte_identical(self):
        assert self._via_service_plane() == self._direct()


class TestChainWorkflowGoldenEquivalence:
    """The DAG refactor's equivalence proof against the PRE-REFACTOR world.

    ``workflow = "gatk_chain"`` lowers the seed 7-stage GATK pipeline to a
    chain-shaped compiled workflow and routes it through the DAG-aware
    scheduler/estimator/allocator.  The canonical row dump must equal the
    fixture captured before any workflow plumbing existed -- serially and
    across a process pool, plain and under telemetry+chaos.  This is the
    CI ``dag-equivalence`` job's backing test.
    """

    @pytest.mark.parametrize("variant", ["plain", "telemetry_chaos"])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_chain_workflow_byte_identical_to_golden(self, variant, jobs):
        golden = json.loads(FIXTURE.read_text())[variant]
        config = _variants()[variant].with_overrides(workflow="gatk_chain")
        rows = run_sweep(config, SPEC, base_seed=0, jobs=jobs)
        assert json.dumps(
            [r.as_flat_dict() for r in rows], sort_keys=True
        ) == golden


if __name__ == "__main__":  # regeneration entry point
    out = {name: _canonical(cfg) for name, cfg in _variants().items()}
    out["tiers_predictive"] = _canonical(_tiers_predictive(), TIERS_SPEC)
    FIXTURE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"regenerated {FIXTURE}")
