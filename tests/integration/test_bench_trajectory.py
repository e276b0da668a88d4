"""The perf trajectory file and the script that folds it
(``scripts/bench_trajectory.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bt():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOST = {"cpu_count": 2, "cpus_usable": 2, "implementation": "CPython",
        "machine": "x86_64", "python": "3.11.7"}


def _record(side: str, ms: float, raw_ms, rss: float) -> dict:
    raw = {"setup_s": 0.002}
    if raw_ms is not None:
        raw["ms_per_job"] = raw_ms
    return {
        "trace": 0,
        "seconds": 25.0,
        "host": dict(HOST, git_sha="unknown",
                     src_sha256={"parent": "a", "change": "b"}[side] * 64),
        "raw": raw,
        "result": {"correct": True, "metrics": {
            "ms_per_job": {"value": ms},
            "setup_s": {"value": 0.001},
            "peak_rss_mb": {"value": rss},
        }},
    }


def _write(tmp_path, workload, pairs, with_raw=True):
    for seed, (parent_ms, change_ms) in pairs.items():
        for side, ms, rss in (("parent", parent_ms, 60.0),
                              ("change", change_ms, 61.0)):
            path = tmp_path / f"{workload}-seed{seed}-{side}.json"
            path.write_text(json.dumps(
                _record(side, ms, 2 * ms if with_raw else None, rss)
            ))


def test_committed_trajectory_passes_its_check(bt):
    doc = json.loads((ROOT / "BENCH_trajectory.json").read_text())
    assert bt.check(doc) == []


def test_fold_quartiles_and_wins(bt, tmp_path):
    _write(tmp_path, "service_mixed",
           {2: (4.0, 3.0), 3: (5.0, 5.5), 4: (6.0, 4.0), 5: (7.0, 6.0)})
    entry = bt.fold("e", "service_mixed", str(tmp_path),
                    {"parent": "a" * 40, "change": None})
    assert entry["seeds"] == [2, 3, 4, 5] and entry["pairs"] == 4
    assert entry["parent"]["git_sha"] == "a" * 40
    assert entry["change"] == {"git_sha": "unknown", "src_sha256": "b" * 64}
    ms = entry["metrics"]["ms_per_job"]
    assert ms["parent"]["normalized"]["median"] == 5.5
    assert ms["change"]["raw"]["values"] == [6.0, 11.0, 8.0, 12.0]
    assert ms["wins"] == {"normalized": 3, "raw": 3}
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["parent"]["raw"] == rss["parent"]["normalized"]
    assert rss["wins"] == {"normalized": 0, "raw": 0}
    doc = {"schema": bt.SCHEMA, "entries": [entry]}
    assert bt.check(doc) == []
    ms["wins"]["normalized"] = 4
    ms["change"]["normalized"]["q3"] += 1.0
    problems = bt.check(doc)
    assert any("win count" in p for p in problems)
    assert any("quartiles" in p for p in problems)


def test_missing_raw_figure_folds_to_null(bt, tmp_path):
    _write(tmp_path, "chain_paper", {1: (0.2, 0.19)}, with_raw=False)
    entry = bt.fold("e", "chain_paper", str(tmp_path), {})
    ms = entry["metrics"]["ms_per_job"]
    assert ms["parent"]["raw"] is None and ms["wins"]["raw"] is None
    assert bt.check({"schema": bt.SCHEMA, "entries": [entry]}) == []


def test_unpaired_record_is_refused(bt, tmp_path):
    _write(tmp_path, "service_mixed", {2: (4.0, 3.0)})
    (tmp_path / "service_mixed-seed2-change.json").unlink()
    with pytest.raises(SystemExit, match="unpaired"):
        bt.fold("e", "service_mixed", str(tmp_path), {})


def test_entry_at_another_run_length_is_refused(bt, tmp_path):
    _write(tmp_path, "service_mixed", {2: (4.0, 3.0)})
    entry = bt.fold("e", "service_mixed", str(tmp_path), {})
    doc = {"schema": bt.SCHEMA, "entries": [entry]}
    assert bt.check(doc) == []
    entry["seconds"] = 10.0
    assert any("run length 10.0 s" in p for p in bt.check(doc))
