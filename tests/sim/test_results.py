"""Unit suite for the streaming result sink (:mod:`repro.sim.results`).

Stores on each ledger medium (memory / JSONL / SQLite), replay semantics
(completed wins, failed is retryable, duplicates counted), torn tails as
the store sees them, the resume
protocol's header checks, and the incremental aggregator's fold
behaviour -- all on synthetic records, no simulator in the loop.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.core.errors import ConfigurationError, SCANError
from repro.core.ledger import (
    LEDGERS,
    JsonlLedger,
    MemoryLedger,
    SqliteLedger,
    open_ledger,
)
from repro.sim.results import (
    ResultRecord,
    ResultStore,
    SweepAggregator,
    SweepMeta,
    failed_records,
    grid_fingerprint,
    open_result_stream,
    records_from_runs,
)
from repro.sim.sweep import row_from_runs

CELLS = [{"alpha": 1, "beta": "x"}, {"alpha": 2, "beta": "y"}]


def jsonl_store(path) -> ResultStore:
    return ResultStore(JsonlLedger(str(path)))


def memory_store() -> ResultStore:
    return ResultStore(MemoryLedger())


def meta_for(cells=CELLS, repetitions=2, base_seed=0) -> SweepMeta:
    return SweepMeta(
        cells=len(cells),
        repetitions=repetitions,
        base_seed=base_seed,
        seed_mode="crn",
        grid_fingerprint=grid_fingerprint(cells),
        config_fingerprint="cfg",
    )


def completed(cell, rep, value=1.0, seed=None) -> ResultRecord:
    return ResultRecord(
        cell_index=cell,
        rep_index=rep,
        seed=seed if seed is not None else rep,
        status="completed",
        metrics={"profit": value, "latency": value * 2},
    )


def failed(cell, rep, error="boom") -> ResultRecord:
    return ResultRecord(
        cell_index=cell, rep_index=rep, seed=rep, status="failed", error=error
    )


class TestResultRecord:
    def test_round_trip(self):
        rec = completed(3, 1, value=2.5)
        assert ResultRecord.from_dict(rec.to_dict()) == rec

    def test_failed_round_trip_keeps_error(self):
        rec = failed(0, 0, error="worker crash")
        back = ResultRecord.from_dict(rec.to_dict())
        assert back.error == "worker crash"
        assert back.status == "failed"

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            ResultRecord(0, 0, 0, "done")

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            ResultRecord(-1, 0, 0, "completed")


class TestGridFingerprint:
    def test_stable_under_key_order(self):
        a = [{"x": 1, "y": 2}]
        b = [{"y": 2, "x": 1}]
        assert grid_fingerprint(a) == grid_fingerprint(b)

    def test_sensitive_to_cell_order(self):
        assert grid_fingerprint(CELLS) != grid_fingerprint(CELLS[::-1])

    def test_enums_key_by_value(self):
        from repro.core.config import ScalingAlgorithm

        assert grid_fingerprint(
            [{"scaling": ScalingAlgorithm.ALWAYS}]
        ) == grid_fingerprint([{"scaling": "always"}])


@pytest.fixture(params=["memory", "jsonl", "sqlite"])
def store_factory(request, tmp_path):
    """Build-or-reopen factory per backend: calling it again reopens."""
    kind = request.param
    if kind == "memory":
        instance = memory_store()
        return lambda: instance
    if kind == "jsonl":
        return lambda: jsonl_store(tmp_path / "r.jsonl")
    return lambda: ResultStore(SqliteLedger(str(tmp_path / "r.db")))


class TestStores:
    def test_registry_has_all_backends(self):
        assert {"memory", "jsonl", "sqlite"} <= set(LEDGERS.names())

    def test_empty_load(self, store_factory):
        store = store_factory()
        state = store.load()
        assert state.meta is None
        assert state.completed == {}
        assert state.failed == {}
        store.close()

    def test_meta_and_records_round_trip(self, store_factory):
        store = store_factory()
        store.write_meta(meta_for())
        store.record(completed(0, 0))
        store.record(completed(0, 1, value=3.0))
        store.record(failed(1, 0))
        store.close()
        state = store_factory().load()
        assert state.meta == meta_for()
        assert set(state.completed) == {(0, 0), (0, 1)}
        assert state.completed[(0, 1)].metrics["profit"] == 3.0
        assert set(state.failed) == {(1, 0)}

    def test_completed_supersedes_failed(self, store_factory):
        store = store_factory()
        store.write_meta(meta_for())
        store.record(failed(0, 0))
        store.record(completed(0, 0, value=7.0))
        store.close()
        state = store_factory().load()
        assert state.failed == {}
        assert state.completed[(0, 0)].metrics["profit"] == 7.0

    def test_completed_never_clobbered(self, store_factory):
        store = store_factory()
        store.write_meta(meta_for())
        store.record(completed(0, 0, value=1.0))
        store.record(completed(0, 0, value=9.0))
        store.record(failed(0, 0))
        store.close()
        state = store_factory().load()
        assert state.completed[(0, 0)].metrics["profit"] == 1.0
        assert state.failed == {}

    def test_float_metrics_round_trip_exactly(self, store_factory):
        # The byte-identity argument rests on json's exact float
        # round-trip; pin it against a value with a messy repr.
        ugly = 0.1 + 0.2
        store = store_factory()
        store.record(completed(0, 0, value=ugly))
        state = store.load()
        assert state.completed[(0, 0)].metrics["profit"] == ugly
        store.close()


class TestJsonlTornTail:
    def test_torn_tail_tolerated_and_counted(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = jsonl_store(path)
        store.write_meta(meta_for())
        store.record(completed(0, 0))
        store.close()
        with open(path, "a") as fh:
            fh.write('{"op": "result", "record": {"cell_in')
        state = jsonl_store(path).load()
        assert state.corrupt_records in (0, 1)  # repaired on open
        assert set(state.completed) == {(0, 0)}

    def test_reopen_truncates_fragment(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = jsonl_store(path)
        store.record(completed(0, 0))
        store.close()
        with open(path, "a") as fh:
            fh.write('{"torn')
        store = jsonl_store(path)
        store.record(completed(0, 1))
        store.close()
        state = jsonl_store(path).load()
        assert set(state.completed) == {(0, 0), (0, 1)}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        good = json.dumps(
            {"op": "result", "record": completed(0, 0).to_dict()}
        )
        path.write_text(f"not json\n{good}\n")
        with pytest.raises(SCANError, match="corrupt"):
            jsonl_store(path).load()

    def test_duplicate_completed_counted(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = jsonl_store(path)
        store.record(completed(0, 0, value=1.0))
        store.record(completed(0, 0, value=2.0))
        state = store.load()
        store.close()
        assert state.duplicate_records == 1
        assert state.completed[(0, 0)].metrics["profit"] == 1.0


class TestMakeResultStore:
    """Spec strings as ``ResultsConfig.store`` hands them to the CLI."""

    def test_memory(self):
        store = ResultStore(open_ledger("memory"))
        assert isinstance(store.ledger, MemoryLedger)

    def test_jsonl_by_suffix(self, tmp_path):
        store = ResultStore(open_ledger(str(tmp_path / "a.jsonl")))
        assert isinstance(store.ledger, JsonlLedger)
        store.close()

    @pytest.mark.parametrize("suffix", [".db", ".sqlite", ".sqlite3"])
    def test_sqlite_by_suffix(self, tmp_path, suffix):
        store = ResultStore(open_ledger(str(tmp_path / f"a{suffix}")))
        assert isinstance(store.ledger, SqliteLedger)
        store.close()

    def test_explicit_kind_prefix(self, tmp_path):
        store = ResultStore(open_ledger(f"sqlite:{tmp_path}/weird.out"))
        assert isinstance(store.ledger, SqliteLedger)
        store.close()

    def test_fsync_flag_reaches_jsonl(self, tmp_path):
        store = ResultStore(open_ledger(str(tmp_path / "a.jsonl"), fsync=True))
        assert store.ledger.fsync is True
        store.record(completed(0, 0))
        assert set(store.load().completed) == {(0, 0)}
        store.close()


class TestOpenResultStream:
    def test_fresh_store_writes_header(self):
        store = memory_store()
        state = open_result_stream(store, meta_for())
        assert state.completed == {}
        assert store.load().meta == meta_for()

    def test_fresh_store_with_resume_is_fresh_start(self):
        state = open_result_stream(memory_store(), meta_for(),
                                   resume=True)
        assert state.meta == meta_for()

    def test_nonempty_without_resume_refused(self):
        store = memory_store()
        open_result_stream(store, meta_for())
        store.record(completed(0, 0))
        with pytest.raises(ConfigurationError, match="--resume"):
            open_result_stream(store, meta_for())

    def test_resume_reports_completed_keys(self):
        store = memory_store()
        open_result_stream(store, meta_for())
        store.record(completed(0, 0))
        store.record(failed(0, 1))
        state = open_result_stream(store, meta_for(), resume=True)
        assert set(state.completed) == {(0, 0)}
        assert set(state.failed) == {(0, 1)}

    def test_mismatched_meta_refused(self):
        store = memory_store()
        open_result_stream(store, meta_for())
        other = meta_for(base_seed=99)
        with pytest.raises(ConfigurationError, match="base_seed"):
            open_result_stream(store, other, resume=True)

    def test_headerless_records_refused(self):
        store = memory_store()
        store.record(completed(0, 0))
        with pytest.raises(SCANError, match="header"):
            open_result_stream(store, meta_for())


class TestSweepAggregator:
    def test_cell_row_surfaces_on_last_rep(self):
        agg = SweepAggregator(CELLS, repetitions=2)
        assert agg.add(completed(0, 0, value=1.0)) is None
        row = agg.add(completed(0, 1, value=3.0))
        assert row is not None
        assert row.params == CELLS[0]
        assert row["profit"].mean == 2.0
        assert agg.done_cells == 1

    def test_partial_state_released_on_finalize(self):
        agg = SweepAggregator(CELLS, repetitions=2)
        agg.add(completed(0, 0))
        assert len(agg._partial) == 1
        agg.add(completed(0, 1))
        assert len(agg._partial) == 0

    def test_failed_records_ignored(self):
        agg = SweepAggregator(CELLS, repetitions=1)
        assert agg.add(failed(0, 0)) is None
        assert agg.missing_keys() == [(0, 0), (1, 0)]

    def test_duplicates_counted_not_folded(self):
        agg = SweepAggregator(CELLS, repetitions=2)
        agg.add(completed(0, 0, value=1.0))
        agg.add(completed(0, 0, value=9.0))
        row = agg.add(completed(0, 1, value=1.0))
        assert agg.duplicates == 1
        assert row["profit"].mean == 1.0

    def test_out_of_grid_record_rejected(self):
        agg = SweepAggregator(CELLS, repetitions=2)
        with pytest.raises(SCANError):
            agg.add(completed(5, 0))
        with pytest.raises(SCANError):
            agg.add(completed(0, 5))

    def test_rows_requires_completeness(self):
        agg = SweepAggregator(CELLS, repetitions=1)
        agg.add(completed(0, 0))
        with pytest.raises(SCANError, match="incomplete"):
            agg.rows()
        agg.add(completed(1, 0))
        rows = agg.rows()
        assert [r.params for r in rows] == CELLS

    def test_on_cell_fires_per_finalized_cell(self):
        seen = []
        agg = SweepAggregator(
            CELLS, repetitions=1, on_cell=lambda i, row: seen.append(i)
        )
        agg.add(completed(1, 0))
        agg.add(completed(0, 0))
        assert seen == [1, 0]

    def test_retain_rows_false_blocks_rows(self):
        agg = SweepAggregator(CELLS, repetitions=1, retain_rows=False)
        agg.add(completed(0, 0))
        agg.add(completed(1, 0))
        with pytest.raises(SCANError, match="retain_rows"):
            agg.rows()


#: Synthetic grid for the memory ceiling: large enough that buffering it
#: dominates the interpreter's baseline noise.
_MEM_CELLS = 3000
_MEM_REPS = 3
_MEM_METRICS = [f"metric_{i}" for i in range(8)]


def _mem_run(cell_index: int, rep: int) -> dict[str, float]:
    return {
        name: float(cell_index * _MEM_REPS + rep + j)
        for j, name in enumerate(_MEM_METRICS)
    }


def test_streaming_aggregator_memory_ceiling():
    """The resumable path's memory claim, measured: folding a 3000-cell
    grid with ``retain_rows=False`` peaks at a small fraction of
    buffering every run and row in memory, because the aggregator only
    holds per-run metrics for cells that are still incomplete."""
    cells = [{"cell": i} for i in range(_MEM_CELLS)]

    # Baseline: what the pre-streaming executor did -- keep every run,
    # then materialize every row, all resident at once.
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        buffered_runs = {
            ci: [_mem_run(ci, k) for k in range(_MEM_REPS)]
            for ci in range(_MEM_CELLS)
        }
        buffered_rows = [
            row_from_runs(cells[ci], runs) for ci, runs in buffered_runs.items()
        ]
        _, buffered_peak = tracemalloc.get_traced_memory()
        assert len(buffered_rows) == _MEM_CELLS
        del buffered_rows, buffered_runs

        # Streaming: records arrive in grid order, finalized rows leave
        # through on_cell immediately, nothing is retained.
        drained = 0

        def drain(cell_index, row) -> None:
            nonlocal drained
            drained += 1

        tracemalloc.reset_peak()
        agg = SweepAggregator(
            cells, _MEM_REPS, on_cell=drain, retain_rows=False
        )
        for ci in range(_MEM_CELLS):
            for k in range(_MEM_REPS):
                agg.add(ResultRecord(
                    cell_index=ci, rep_index=k, seed=k,
                    status="completed", metrics=_mem_run(ci, k),
                ))
        _, streaming_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert drained == _MEM_CELLS
    assert agg.done_cells == _MEM_CELLS
    # The bound that makes grids bigger than RAM feasible: streaming must
    # stay an order of magnitude under the buffered grid.
    assert streaming_peak < buffered_peak * 0.1, (
        streaming_peak, buffered_peak,
    )


class TestRecordBuilders:
    def test_records_from_runs_aligned(self):
        recs = records_from_runs(
            3, [0, 2], [10, 12], [{"m": 1.0}, {"m": 2.0}]
        )
        assert [(r.rep_index, r.seed) for r in recs] == [(0, 10), (2, 12)]
        assert all(r.status == "completed" for r in recs)

    def test_records_from_runs_misaligned_rejected(self):
        with pytest.raises(ValueError):
            records_from_runs(0, [0, 1], [10], [{"m": 1.0}])

    def test_failed_records_carry_error(self):
        recs = failed_records(1, [0, 1], [10, 11], "timeout")
        assert all(r.status == "failed" and r.error == "timeout"
                   for r in recs)
