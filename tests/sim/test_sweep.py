"""Tests for the Table I sweep engine."""

import json

import pytest

from repro.core.config import (
    AllocationAlgorithm,
    PlatformConfig,
    RewardScheme,
    ScalingAlgorithm,
)
from repro.sim.sweep import (
    TABLE1_FULL,
    SweepSpec,
    apply_cell,
    row_from_runs,
    run_cell_runs,
    run_sweep,
)


def tiny_base():
    return PlatformConfig.paper_defaults().with_overrides(
        simulation={"duration": 80.0, "repetitions": 2}
    )


class TestSweepSpec:
    def test_default_is_single_cell(self):
        assert SweepSpec().size() == 1

    def test_size_is_product(self):
        spec = SweepSpec(
            scaling=(ScalingAlgorithm.ALWAYS, ScalingAlgorithm.NEVER),
            mean_interarrival=(2.0, 2.5, 3.0),
        )
        assert spec.size() == 6
        assert len(list(spec.cells())) == 6

    def test_table1_full_grid_size(self):
        """Table I: 4 allocators x 3 scalers x 11 intervals x 2 rewards x
        4 public costs."""
        assert TABLE1_FULL.size() == 4 * 3 * 11 * 2 * 4

    def test_table1_values_exact(self):
        assert TABLE1_FULL.mean_interarrival == (
            2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9, 3.0,
        )
        assert TABLE1_FULL.public_core_cost == (20.0, 50.0, 80.0, 110.0)


class TestApplyCell:
    def test_cell_overlays_config(self):
        cell = {
            "allocation": AllocationAlgorithm.LONG_TERM,
            "scaling": ScalingAlgorithm.NEVER,
            "mean_interarrival": 2.2,
            "reward_scheme": RewardScheme.THROUGHPUT,
            "public_core_cost": 80.0,
        }
        config = apply_cell(tiny_base(), cell)
        assert config.scheduler.allocation is AllocationAlgorithm.LONG_TERM
        assert config.scheduler.scaling is ScalingAlgorithm.NEVER
        assert config.workload.mean_interarrival == 2.2
        assert config.reward.scheme is RewardScheme.THROUGHPUT
        assert config.cloud.public_core_cost == 80.0


class TestRunSweep:
    def test_rows_and_aggregation(self):
        spec = SweepSpec(mean_interarrival=(2.2, 2.8))
        rows = run_sweep(tiny_base(), spec, repetitions=2, base_seed=5)
        assert len(rows) == 2
        for row in rows:
            assert row.repetitions == 2
            stats = row["mean_profit_per_run"]
            assert stats.n == 2
            assert row.param("mean_interarrival") in (2.2, 2.8)

    def test_progress_callback(self):
        seen = []
        spec = SweepSpec(mean_interarrival=(2.5,))
        run_sweep(
            tiny_base(), spec, repetitions=1,
            progress=lambda done, total, cell: seen.append((done, total)),
        )
        assert seen == [(1, 1)]

    def test_flat_dict_export(self):
        spec = SweepSpec()
        (row,) = run_sweep(tiny_base(), spec, repetitions=1)
        flat = row.as_flat_dict()
        assert flat["scaling"] == "predictive"
        assert "mean_profit_per_run_mean" in flat
        assert "mean_profit_per_run_std" in flat


def rows_canon(rows) -> str:
    return json.dumps([r.as_flat_dict() for r in rows], sort_keys=True)


class TestSweepEdgePaths:
    def test_empty_grid_returns_no_rows(self):
        spec = SweepSpec(mean_interarrival=())
        assert spec.size() == 0
        assert run_sweep(tiny_base(), spec, repetitions=1) == []

    def test_empty_grid_streaming(self, tmp_path):
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        spec = SweepSpec(mean_interarrival=())
        store = ResultStore(open_ledger(str(tmp_path / "r.jsonl")))
        try:
            assert run_sweep(tiny_base(), spec, results=store) == []
        finally:
            store.close()

    def test_single_cell_grid(self):
        rows = run_sweep(
            tiny_base(), SweepSpec(), repetitions=1, base_seed=3
        )
        assert len(rows) == 1
        assert rows[0].repetitions == 1
        # n=1 aggregation: std pinned to 0, not NaN.
        assert rows[0]["mean_profit_per_run"].std == 0.0

    def test_run_cell_composes_its_halves(self):
        cell = next(SweepSpec().cells())
        (whole,) = run_sweep(
            tiny_base(), SweepSpec(), repetitions=2, base_seed=7
        )
        per_run = run_cell_runs(
            tiny_base(), cell, repetitions=2, base_seed=7
        )
        assert row_from_runs(cell, per_run) == whole
        assert len(per_run) == 2


class TestStreamingSerial:
    SPEC = SweepSpec(mean_interarrival=(2.2, 2.8))

    def _reference(self):
        return run_sweep(
            tiny_base(), self.SPEC, repetitions=2, base_seed=5
        )

    def test_streaming_rows_identical_to_in_memory(self, tmp_path):
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        store = ResultStore(open_ledger(str(tmp_path / "r.jsonl")))
        try:
            rows = run_sweep(
                tiny_base(), self.SPEC, repetitions=2, base_seed=5,
                results=store,
            )
        finally:
            store.close()
        assert rows_canon(rows) == rows_canon(self._reference())

    def test_resume_complete_store_runs_nothing(self, tmp_path):
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        path = tmp_path / "r.jsonl"
        store = ResultStore(open_ledger(str(path)))
        run_sweep(tiny_base(), self.SPEC, repetitions=2, base_seed=5,
                  results=store)
        store.close()
        before = path.read_text()
        store = ResultStore(open_ledger(str(path)))
        try:
            rows = run_sweep(
                tiny_base(), self.SPEC, repetitions=2, base_seed=5,
                results=store, resume=True,
            )
        finally:
            store.close()
        # Nothing re-ran: the ledger did not grow by a single byte.
        assert path.read_text() == before
        assert rows_canon(rows) == rows_canon(self._reference())

    def test_resume_partial_store_runs_only_remainder(self, tmp_path):
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        path = tmp_path / "r.jsonl"
        store = ResultStore(open_ledger(str(path)))
        run_sweep(tiny_base(), self.SPEC, repetitions=2, base_seed=5,
                  results=store)
        store.close()
        lines = path.read_text().splitlines()
        total_records = len(lines) - 1  # minus the header
        # Keep the header and the first completed repetition only.
        path.write_text("\n".join(lines[:2]) + "\n")
        store = ResultStore(open_ledger(str(path)))
        try:
            rows = run_sweep(
                tiny_base(), self.SPEC, repetitions=2, base_seed=5,
                results=store, resume=True,
            )
        finally:
            store.close()
        assert rows_canon(rows) == rows_canon(self._reference())
        # Exactly the missing repetitions were appended: no duplicates.
        final = path.read_text().splitlines()
        assert len(final) - 1 == total_records

    def test_progress_fires_per_cell_in_grid_order(self, tmp_path):
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        seen = []
        store = ResultStore(open_ledger(str(tmp_path / "r.jsonl")))
        try:
            run_sweep(
                tiny_base(), self.SPEC, repetitions=1, base_seed=5,
                results=store,
                progress=lambda done, total, cell: seen.append(
                    (done, total)
                ),
            )
        finally:
            store.close()
        assert seen == [(1, 2), (2, 2)]

    def test_nonempty_store_without_resume_refused(self, tmp_path):
        from repro.core.errors import ConfigurationError
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        path = tmp_path / "r.jsonl"
        store = ResultStore(open_ledger(str(path)))
        run_sweep(tiny_base(), self.SPEC, repetitions=1, base_seed=5,
                  results=store)
        store.close()
        store = ResultStore(open_ledger(str(path)))
        try:
            with pytest.raises(ConfigurationError, match="--resume"):
                run_sweep(
                    tiny_base(), self.SPEC, repetitions=1, base_seed=5,
                    results=store,
                )
        finally:
            store.close()

    def test_different_sweep_cannot_resume(self, tmp_path):
        from repro.core.errors import ConfigurationError
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        path = tmp_path / "r.jsonl"
        store = ResultStore(open_ledger(str(path)))
        run_sweep(tiny_base(), self.SPEC, repetitions=1, base_seed=5,
                  results=store)
        store.close()
        store = ResultStore(open_ledger(str(path)))
        try:
            with pytest.raises(ConfigurationError, match="different sweep"):
                run_sweep(
                    tiny_base(), self.SPEC, repetitions=1, base_seed=6,
                    results=store, resume=True,
                )
        finally:
            store.close()
