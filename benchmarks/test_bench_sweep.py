"""Parallel sweep benchmark: wall-clock speedup and memory.

Runs the same scaled-down Table I grid through the sweep executor in
process (``jobs=1``) and on the process pool, checks they agree
bit-for-bit, and writes ``BENCH_sweep.json`` (schema
``scan-sim-bench-sweep/1``) with the wall times and the speedup.  A second
benchmark pins the streaming result layer's memory claim: folding a large
grid through :class:`~repro.sim.results.SweepAggregator` with
``retain_rows=False`` must peak far below buffering the grid in memory
(the aggregator holds per-run metrics only for *incomplete* cells).

The speedup is *recorded*, not hard-asserted: single-core containers
legitimately see ~1x (pool overhead included), so the assertion here is
equivalence plus a sanity floor, and the CI smoke job uploads the JSON so
multi-core runners document the actual scaling.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

from repro.core.config import RewardScheme, ScalingAlgorithm
from repro.core.ledger import open_ledger
from repro.sim.results import ResultRecord, ResultStore, SweepAggregator
from repro.sim.sweep import SweepSpec, row_from_runs, run_sweep

from .conftest import bench_config

#: Where the benchmark JSON lands (overridable for CI artifact staging).
BENCH_OUT = os.environ.get("BENCH_SWEEP_OUT", "BENCH_sweep.json")
#: Worker count for the parallel leg (0 = one per core).
BENCH_JOBS = int(os.environ.get("BENCH_SWEEP_JOBS", "0"))

SPEC = SweepSpec(
    scaling=(ScalingAlgorithm.ALWAYS, ScalingAlgorithm.PREDICTIVE),
    mean_interarrival=(2.2, 2.8),
    reward_scheme=(RewardScheme.TIME,),
)


def rows_as_bytes(rows) -> bytes:
    return json.dumps([r.as_flat_dict() for r in rows], sort_keys=True).encode()


def merge_bench(updates: dict) -> dict:
    """Read-update-write ``BENCH_OUT`` so both benchmarks share one file.

    The speedup benchmark runs first (file order) and writes the payload
    wholesale; this merges later keys into it, or starts a fresh payload
    when the memory benchmark runs standalone.
    """
    payload = {"schema": "scan-sim-bench-sweep/1"}
    if os.path.exists(BENCH_OUT):
        with open(BENCH_OUT) as fh:
            payload = json.load(fh)
    payload.update(updates)
    with open(BENCH_OUT, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def test_parallel_sweep_speedup_and_equivalence(print_header):
    base = bench_config()

    t0 = time.perf_counter()
    serial_rows = run_sweep(base, SPEC, base_seed=42, jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel_rows = run_sweep(base, SPEC, base_seed=42, jobs=BENCH_JOBS)
    parallel_s = time.perf_counter() - t0

    assert rows_as_bytes(parallel_rows) == rows_as_bytes(serial_rows)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")

    payload = merge_bench({
        "grid_cells": SPEC.size(),
        "repetitions": base.simulation.repetitions,
        "jobs": BENCH_JOBS,
        "cpu_count": os.cpu_count(),
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "rows_identical": True,
    })

    print_header("Parallel sweep: serial vs process pool")
    print(json.dumps(payload, indent=2, sort_keys=True))

    # Sanity floor only -- pool overhead on a 1-core box can eat the win.
    assert speedup > 0.2


def test_streaming_sink_equivalence_and_overhead(tmp_path, print_header):
    """Streaming the bench grid through a JSONL ledger changes nothing
    but durability: rows byte-identical, overhead recorded."""
    base = bench_config()

    t0 = time.perf_counter()
    reference = run_sweep(base, SPEC, base_seed=42)
    plain_s = time.perf_counter() - t0

    store = ResultStore(open_ledger(str(tmp_path / "bench_results.jsonl")))
    t0 = time.perf_counter()
    try:
        streamed = run_sweep(base, SPEC, base_seed=42, results=store)
    finally:
        store.close()
    streamed_s = time.perf_counter() - t0

    assert rows_as_bytes(streamed) == rows_as_bytes(reference)
    overhead = streamed_s / plain_s if plain_s > 0 else float("inf")
    payload = merge_bench({
        "streaming_rows_identical": True,
        "streaming_wall_s": round(streamed_s, 3),
        "streaming_overhead_x": round(overhead, 3),
    })
    print_header("Streaming sink: in-memory vs JSONL ledger")
    print(json.dumps(
        {k: payload[k] for k in (
            "streaming_rows_identical", "streaming_wall_s",
            "streaming_overhead_x",
        )},
        indent=2, sort_keys=True,
    ))


#: Synthetic grid for the memory ceiling: large enough that buffering it
#: dominates the interpreter's baseline noise.
_MEM_CELLS = 3000
_MEM_REPS = 3
_MEM_METRICS = [f"metric_{i}" for i in range(8)]


def _mem_cells() -> list[dict]:
    return [{"cell": i} for i in range(_MEM_CELLS)]


def _mem_run(cell_index: int, rep: int) -> dict[str, float]:
    return {
        name: float(cell_index * _MEM_REPS + rep + j)
        for j, name in enumerate(_MEM_METRICS)
    }


def test_streaming_aggregator_memory_ceiling(print_header):
    """The resumable path's memory claim, measured: folding a 3000-cell
    grid with ``retain_rows=False`` peaks at a small fraction of
    buffering every run and row in memory, because the aggregator only
    holds per-run metrics for cells that are still incomplete."""
    cells = _mem_cells()

    # Baseline: what the pre-streaming executor did -- keep every run,
    # then materialize every row, all resident at once.
    tracemalloc.start()
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
    tracemalloc.stop()

    assert drained == _MEM_CELLS
    assert agg.done_cells == _MEM_CELLS
    ratio = streaming_peak / buffered_peak if buffered_peak else float("inf")
    payload = merge_bench({
        "memory_grid_cells": _MEM_CELLS,
        "memory_repetitions": _MEM_REPS,
        "buffered_peak_kb": round(buffered_peak / 1024, 1),
        "streaming_peak_kb": round(streaming_peak / 1024, 1),
        "streaming_memory_ratio": round(ratio, 4),
    })
    print_header("Streaming aggregator: peak memory vs buffering the grid")
    print(json.dumps(
        {k: payload[k] for k in (
            "memory_grid_cells", "buffered_peak_kb", "streaming_peak_kb",
            "streaming_memory_ratio",
        )},
        indent=2, sort_keys=True,
    ))
    # The bound that makes grids bigger than RAM feasible: streaming must
    # stay an order of magnitude under the buffered grid.
    assert streaming_peak < buffered_peak * 0.1, (
        streaming_peak, buffered_peak,
    )
