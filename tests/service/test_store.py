"""Queue-store tests: op replay, crash tolerance seen through the store.

The ledger media themselves are covered in ``tests/core/test_ledger.py``.
"""

import json

import pytest

from repro.core.errors import SCANError
from repro.core.ledger import (
    LEDGERS,
    JsonlLedger,
    MemoryLedger,
    SqliteLedger,
    open_ledger,
)
from repro.service.queue import QueuedJob
from repro.service.store import JsonlQueueStore, QueueStore


def _job(uid, tenant="t0", seq=0, **kw):
    return QueuedJob(uid=uid, tenant=tenant, name=uid, size_gb=1.0,
                     seq=seq, **kw)


def _stores(tmp_path):
    return [
        QueueStore(MemoryLedger()),
        JsonlQueueStore(str(tmp_path / "ledger.jsonl")),
        QueueStore(SqliteLedger(str(tmp_path / "ledger.db"))),
    ]


class TestReplaySemantics:
    def test_push_only_recovers_in_seq_order(self, tmp_path):
        for store in _stores(tmp_path):
            store.record_push(_job("b", seq=2))
            store.record_push(_job("a", seq=1))
            state = store.load()
            assert [j.uid for j in state.queued] == ["a", "b"]
            assert state.accepted == 2
            store.close()

    def test_leased_at_crash_recovers_as_queued_and_interrupted(self, tmp_path):
        for store in _stores(tmp_path):
            store.record_push(_job("a", seq=1))
            store.record_push(_job("b", seq=2))
            store.record_pop(_job("a", seq=1))
            state = store.load()
            assert [j.uid for j in state.queued] == ["a", "b"]
            assert state.interrupted == ["a"]
            store.close()

    def test_finished_jobs_do_not_requeue(self, tmp_path):
        for store in _stores(tmp_path):
            job = _job("a", seq=1)
            store.record_push(job)
            store.record_pop(job)
            store.record_finish(job, "completed")
            state = store.load()
            assert state.queued == []
            assert state.finished == {"a": "completed"}
            assert state.accepted == 1
            store.close()

    def test_shed_jobs_leave_the_queue(self, tmp_path):
        for store in _stores(tmp_path):
            store.record_push(_job("a", seq=1))
            store.record_shed(_job("a", seq=1))
            state = store.load()
            assert state.queued == []
            assert state.shed == ["a"]
            store.close()

    def test_requeue_repush_supersedes_finish(self, tmp_path):
        # The retry path: finish("requeued") then push again -- the job
        # must come back queued, not counted twice.
        for store in _stores(tmp_path):
            job = _job("a", seq=1)
            store.record_push(job)
            store.record_pop(job)
            store.record_finish(job, "requeued")
            store.record_push(_job("a", seq=1, attempts=1))
            state = store.load()
            assert [j.uid for j in state.queued] == ["a"]
            assert "a" not in state.finished
            assert state.accepted == 1
            store.close()


class TestJsonlCrashTolerance:
    def test_torn_final_line_tolerated(self, tmp_path):
        # load() on a live handle drops a torn tail; reopening instead
        # truncates it first (see the repair tests below).
        path = tmp_path / "ledger.jsonl"
        store = JsonlQueueStore(str(path))
        store.record_push(_job("a", seq=1))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "push", "job": {"uid": "tor')  # crash mid-write
        state = store.load()
        assert [j.uid for j in state.queued] == ["a"]
        assert state.corrupt_records == 1
        store.close()

    def test_append_after_torn_tail_repairs_file(self, tmp_path):
        # Reopening truncates the torn fragment, so the next append can
        # never weld onto it and turn it into mid-file corruption -- a
        # SECOND restart must also replay cleanly, with nothing lost.
        path = tmp_path / "ledger.jsonl"
        store = JsonlQueueStore(str(path))
        store.record_push(_job("a", seq=1))
        store.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "push", "job": {"uid": "tor')  # crash mid-write
        reopened = JsonlQueueStore(str(path))
        reopened.record_push(_job("b", seq=2))
        state = reopened.load()
        assert [j.uid for j in state.queued] == ["a", "b"]
        assert state.corrupt_records == 0  # fragment removed, not welded
        reopened.close()
        second_restart = JsonlQueueStore(str(path))
        assert [j.uid for j in second_restart.load().queued] == ["a", "b"]
        second_restart.close()

    def test_tail_repair_scans_past_chunk_boundary(self, tmp_path):
        # The backward newline scan reads 4 KiB at a time; a torn line
        # longer than one chunk must still be found and removed.
        path = tmp_path / "ledger.jsonl"
        store = JsonlQueueStore(str(path))
        store.record_push(_job("a", seq=1))
        store.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "push", "pad": "' + "x" * 10_000)
        reopened = JsonlQueueStore(str(path))
        reopened.record_push(_job("b", seq=2))
        assert [j.uid for j in reopened.load().queued] == ["a", "b"]
        reopened.close()

    def test_tail_repair_of_fragment_only_file(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"op": "pu')  # the whole file is one torn write
        store = JsonlQueueStore(str(path))
        store.record_push(_job("a", seq=1))
        assert [j.uid for j in store.load().queued] == ["a"]
        store.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        store = JsonlQueueStore(str(path))
        store.record_push(_job("a", seq=1))
        store.close()
        good_line = path.read_text()
        path.write_text("NOT JSON\n" + good_line)
        with pytest.raises(SCANError):
            JsonlQueueStore(str(path)).load()

    def test_missing_file_is_empty_state(self, tmp_path):
        store = JsonlQueueStore(str(tmp_path / "fresh.jsonl"))
        assert store.load().accepted == 0
        store.close()

    def test_write_after_close_raises(self, tmp_path):
        store = JsonlQueueStore(str(tmp_path / "ledger.jsonl"))
        store.close()
        with pytest.raises(SCANError):
            store.record_push(_job("a"))

    def test_unknown_op_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps({"op": "teleport", "uid": "a"}) + "\n")
        store = JsonlQueueStore(str(path))
        with pytest.raises(SCANError):
            store.load()
        store.close()


class TestSqliteReopen:
    def test_state_survives_close_and_reopen(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        store = QueueStore(SqliteLedger(path))
        store.record_push(_job("a", seq=1))
        store.record_push(_job("b", seq=2))
        store.record_pop(_job("a", seq=1))
        store.close()
        reopened = QueueStore(SqliteLedger(path))
        state = reopened.load()
        assert [j.uid for j in state.queued] == ["a", "b"]
        assert state.interrupted == ["a"]
        reopened.close()

    def test_load_after_close_raises(self, tmp_path):
        store = QueueStore(SqliteLedger(str(tmp_path / "ledger.db")))
        store.close()
        with pytest.raises(SCANError):
            store.load()


class TestMakeStore:
    """Spec strings as ``ServiceConfig.store`` hands them to the plane."""

    def test_registry_has_all_backends(self):
        assert {"memory", "jsonl", "sqlite"} <= set(LEDGERS.names())

    def test_spec_dispatch(self, tmp_path):
        for spec, medium in (
            ("memory", MemoryLedger),
            (str(tmp_path / "x.jsonl"), JsonlLedger),
            (str(tmp_path / "x.db"), SqliteLedger),
            (f"jsonl:{tmp_path / 'y.ledger'}", JsonlLedger),
            ("sqlite::memory:", SqliteLedger),
        ):
            store = QueueStore(open_ledger(spec))
            assert isinstance(store.ledger, medium)
            store.record_push(_job("a", seq=1))
            assert [j.uid for j in store.load().queued] == ["a"]
            store.close()
