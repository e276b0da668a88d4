"""Chain workflows must be byte-identical to the pre-DAG scheduler, and
DAG sweeps must ride the streaming/resume substrate unchanged.

The refactor's contract: threading a compiled workflow through the
scheduler/estimator/allocator is a pure generalization -- a chain-shaped
workflow (the seed 7-stage GATK pipeline) takes the exact legacy float
paths, so whole sessions reproduce bit for bit, with and without fault
injection, serial or parallel, streamed or in-memory.
"""

import dataclasses
import json

from repro.core.presets import make_preset
from repro.sim.session import SimulationSession
from repro.sim.sweep import SweepSpec, run_sweep


def result_dict(result):
    return dataclasses.asdict(result)


def rows_canon(rows):
    return json.dumps([r.as_flat_dict() for r in rows], sort_keys=True)


def chain_pair(preset, **overrides):
    legacy = make_preset(preset).with_overrides(**overrides)
    chained = legacy.with_overrides(workflow="gatk_chain")
    return legacy, chained


class TestChainEquivalence:
    def test_smoke_session_bit_identical(self):
        legacy, chained = chain_pair("smoke")
        a = SimulationSession(legacy).run(seed=42)
        b = SimulationSession(chained).run(seed=42)
        assert result_dict(a) == result_dict(b)

    def test_chaos_session_bit_identical(self):
        # Fault injection consumes RNG draws on every scheduler decision:
        # any divergence in decision order or count shows up here.
        legacy, chained = chain_pair(
            "chaos", simulation={"duration": 150.0}
        )
        a = SimulationSession(legacy).run(seed=13)
        b = SimulationSession(chained).run(seed=13)
        assert result_dict(a) == result_dict(b)

    def test_adaptive_provider_session_bit_identical(self):
        # The chain workflow must route through the same (app, stage) fact
        # scopes the legacy refitter uses -- scoped facts would diverge.
        legacy, chained = chain_pair(
            "drift", simulation={"duration": 200.0, "repetitions": 1}
        )
        a = SimulationSession(legacy).run(seed=13)
        b = SimulationSession(chained).run(seed=13)
        assert result_dict(a) == result_dict(b)

    def test_sweep_rows_identical(self):
        legacy, chained = chain_pair(
            "smoke", simulation={"duration": 80.0, "repetitions": 2}
        )
        spec = SweepSpec(mean_interarrival=(2.2, 2.8))
        a = run_sweep(legacy, spec, repetitions=2, base_seed=5)
        b = run_sweep(chained, spec, repetitions=2, base_seed=5)
        assert rows_canon(a) == rows_canon(b)


class TestDagSweepStreaming:
    def fanout_base(self):
        return make_preset("fanout").with_overrides(
            simulation={"duration": 80.0, "repetitions": 2},
        )

    SPEC = SweepSpec(mean_interarrival=(2.4, 2.8))

    def test_streaming_rows_match_in_memory(self, tmp_path):
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        reference = run_sweep(
            self.fanout_base(), self.SPEC, repetitions=2, base_seed=9
        )
        store = ResultStore(open_ledger(str(tmp_path / "r.jsonl")))
        try:
            rows = run_sweep(
                self.fanout_base(), self.SPEC, repetitions=2, base_seed=9,
                results=store,
            )
        finally:
            store.close()
        assert rows_canon(rows) == rows_canon(reference)

    def test_resume_partial_dag_sweep(self, tmp_path):
        """A fan-out DAG sweep killed mid-flight resumes to rows
        bit-identical to an uninterrupted run, with no duplicated work --
        the PR-8 crash-resume contract, unchanged by DAG workloads."""
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        path = tmp_path / "r.jsonl"
        store = ResultStore(open_ledger(str(path)))
        reference = run_sweep(
            self.fanout_base(), self.SPEC, repetitions=2, base_seed=9,
            results=store,
        )
        store.close()
        lines = path.read_text().splitlines()
        total_records = len(lines) - 1
        # Simulate a kill after the first completed repetition.
        path.write_text("\n".join(lines[:2]) + "\n")
        store = ResultStore(open_ledger(str(path)))
        try:
            rows = run_sweep(
                self.fanout_base(), self.SPEC, repetitions=2, base_seed=9,
                results=store, resume=True,
            )
        finally:
            store.close()
        assert rows_canon(rows) == rows_canon(reference)
        assert len(path.read_text().splitlines()) - 1 == total_records


class TestDagSessionSanity:
    def test_fanout_preset_completes_dag_jobs(self):
        result = SimulationSession(make_preset("fanout")).run(seed=11)
        assert result.completed_runs > 0
        assert result.failed_runs == 0

    def test_fanout_runs_are_seed_deterministic(self):
        a = SimulationSession(make_preset("fanout")).run(seed=3)
        b = SimulationSession(make_preset("fanout")).run(seed=3)
        assert result_dict(a) == result_dict(b)
