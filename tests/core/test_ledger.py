"""Crash-consistency suite for the append-only ledger (repro.core.ledger).

Every medium must survive a kill at any record boundary; JSONL must also
survive a kill at any byte of the record being written.  The queue and
result stores are replay functions over this one ledger, so these cases
cover both.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ledger as ledger_module
from repro.core.errors import ConfigurationError, SCANError
from repro.core.ledger import (
    JsonlLedger,
    MemoryLedger,
    SqliteLedger,
    _encode,
    open_ledger,
)

RECORDS = [
    {"op": "meta", "meta": {"cells": 2, "schema": "x/1"}},
    {"op": "push", "job": {"uid": "a-1", "size_gb": 0.1 + 0.2}},
    {"op": "pop", "uid": "a-1"},
    {"op": "result", "record": {"metrics": {"p": -1e-300}, "error": ""}},
    {"op": "finish", "uid": "a-1", "outcome": "completed"},
    {"op": "shed", "uid": "b-2", "note": "ünïcode \n newline"},
]
EXTRA = {"op": "push", "job": {"uid": "c-3"}}


def _cut_memory(tmp_path, k):
    ledger = MemoryLedger()
    for record in RECORDS:
        ledger.append(record)
    cut = MemoryLedger()
    for record in ledger.read()[0][:k]:
        cut.append(record)
    return lambda: cut


def _cut_jsonl(tmp_path, k):
    full = tmp_path / "full.jsonl"
    ledger = JsonlLedger(str(full))
    for record in RECORDS:
        ledger.append(record)
    ledger.close()
    lines = full.read_bytes().splitlines(keepends=True)
    path = tmp_path / f"cut-{k}.jsonl"
    path.write_bytes(b"".join(lines[:k]))
    return lambda: JsonlLedger(str(path))


def _cut_sqlite(tmp_path, k):
    full = tmp_path / "full.db"
    ledger = SqliteLedger(str(full))
    for record in RECORDS:
        ledger.append(record)
    ledger.close()
    path = tmp_path / f"cut-{k}.db"
    shutil.copy(full, path)
    conn = sqlite3.connect(path)
    conn.execute(
        "DELETE FROM ledger WHERE rowid NOT IN "
        "(SELECT rowid FROM ledger ORDER BY rowid LIMIT ?)",
        (k,),
    )
    conn.commit()
    conn.close()
    return lambda: SqliteLedger(str(path))


@pytest.mark.parametrize("cut", [_cut_memory, _cut_jsonl, _cut_sqlite],
                         ids=["memory", "jsonl", "sqlite"])
@pytest.mark.parametrize("k", range(len(RECORDS) + 1))
def test_kill_at_every_record_boundary(tmp_path, cut, k):
    reopen = cut(tmp_path, k)
    ledger = reopen()
    assert ledger.read() == (RECORDS[:k], 0)
    ledger.append(EXTRA)
    ledger.close()
    again = reopen()
    assert again.read() == (RECORDS[:k] + [EXTRA], 0)
    again.close()


def test_jsonl_kill_at_every_byte_of_the_final_record(tmp_path):
    full = tmp_path / "full.jsonl"
    ledger = JsonlLedger(str(full))
    for record in RECORDS:
        ledger.append(record)
    ledger.close()
    raw = full.read_bytes()
    last_start = raw.rindex(b"\n", 0, len(raw) - 1) + 1
    path = tmp_path / "cut.jsonl"
    for cut in range(last_start, len(raw)):
        path.write_bytes(raw[:cut])
        reopened = JsonlLedger(str(path))
        assert reopened.read() == (RECORDS[:-1], 0), cut
        reopened.append(EXTRA)
        reopened.close()
        again = JsonlLedger(str(path))
        assert again.read() == (RECORDS[:-1] + [EXTRA], 0), cut
        again.close()


def test_jsonl_corrupt_final_record_with_newline_raises(tmp_path):
    # A complete line was acknowledged; dropping it as a torn write would
    # let the next append bury it mid-file and fail every later boot.
    path = tmp_path / "l.jsonl"
    ledger = JsonlLedger(str(path))
    ledger.append(RECORDS[1])
    ledger.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"op": "push", "job": GARBAGE}\n')
    reopened = JsonlLedger(str(path))
    with pytest.raises(SCANError, match="at line 2"):
        reopened.read()
    reopened.close()
    assert path.read_text().endswith("GARBAGE}\n")  # not repaired away


@pytest.mark.parametrize("line", ["NOT JSON", "42", '["op", "push"]'])
def test_jsonl_mid_file_corruption_raises(tmp_path, line):
    path = tmp_path / "l.jsonl"
    path.write_text(f'{line}\n{{"op": "pop", "uid": "a"}}\n')
    ledger = JsonlLedger(str(path))
    with pytest.raises(SCANError, match="corrupt ledger .* at line 1"):
        ledger.read()
    ledger.close()


def test_jsonl_bytes_are_pinned(tmp_path):
    # Ledgers written by earlier releases must keep replaying, so the
    # line format is frozen byte for byte.
    from repro.service.queue import QueuedJob
    from repro.service.store import QueueStore

    path = tmp_path / "queue.jsonl"
    store = QueueStore(JsonlLedger(str(path)))
    a = QueuedJob(uid="alice-1", tenant="alice", name="wgs", size_gb=5.0,
                  seq=1)
    b = QueuedJob(uid="bob-2", tenant="bob", name="rna", size_gb=0.5,
                  seq=2, weight=2.0)
    store.record_push(a)
    store.record_push(b)
    store.record_pop(a)
    store.record_finish(a, "completed")
    store.close()
    assert path.read_bytes() == (
        b'{"job": {"attempts": 0, "data_format": "fastq", "deadline": null, '
        b'"name": "wgs", "seq": 1, "size_gb": 5.0, "submitted_at": 0.0, '
        b'"tenant": "alice", "uid": "alice-1", "weight": 1.0}, '
        b'"op": "push"}\n'
        b'{"job": {"attempts": 0, "data_format": "fastq", "deadline": null, '
        b'"name": "rna", "seq": 2, "size_gb": 0.5, "submitted_at": 0.0, '
        b'"tenant": "bob", "uid": "bob-2", "weight": 2.0}, '
        b'"op": "push"}\n'
        b'{"op": "pop", "uid": "alice-1"}\n'
        b'{"op": "finish", "outcome": "completed", "uid": "alice-1"}\n'
    )
    with QueueStore(JsonlLedger(str(path))) as reopened:
        state = reopened.load()
    assert [job.uid for job in state.queued] == ["bob-2"]
    assert state.finished == {"alice-1": "completed"}


_LEGACY_SCHEMAS = {
    "jobs": "CREATE TABLE jobs (uid TEXT PRIMARY KEY, tenant TEXT, "
            "seq INTEGER, state TEXT, outcome TEXT, payload TEXT)",
    "results": "CREATE TABLE sweep_meta (id INTEGER PRIMARY KEY, "
               "payload TEXT); CREATE TABLE results (cell INTEGER, "
               "rep INTEGER, seed INTEGER, status TEXT, error TEXT, "
               "metrics TEXT)",
}


@pytest.mark.parametrize("schema", sorted(_LEGACY_SCHEMAS))
def test_sqlite_refuses_a_legacy_row_per_job_file(tmp_path, schema):
    path = tmp_path / "old.db"
    conn = sqlite3.connect(path)
    conn.executescript(_LEGACY_SCHEMAS[schema])
    conn.close()
    with pytest.raises(ConfigurationError, match="not a ledger"):
        open_ledger(str(path))


def test_sqlite_refuses_a_file_that_is_not_a_database(tmp_path):
    path = tmp_path / "ledger.db"
    path.write_text('{"op": "pop", "uid": "a"}\n' * 100)
    with pytest.raises(ConfigurationError, match="not a SQLite database"):
        SqliteLedger(str(path))


@pytest.mark.parametrize("medium", [JsonlLedger, SqliteLedger])
def test_append_after_close_raises(tmp_path, medium):
    ledger = medium(str(tmp_path / "l.out"))
    ledger.close()
    with pytest.raises(SCANError, match="closed"):
        ledger.append(EXTRA)


def test_missing_jsonl_file_reads_empty(tmp_path):
    ledger = JsonlLedger(str(tmp_path / "sub" / "fresh.jsonl"))
    assert ledger.read() == ([], 0)
    ledger.close()


@pytest.mark.parametrize("spec", ["{tmp}/a.log", "jsonl:{tmp}/a.db"])
def test_other_suffix_and_explicit_prefix_open_jsonl(tmp_path, spec):
    # The SQLite suffixes and the other prefixes are covered by the
    # queue- and result-store spec tests.
    ledger = open_ledger(spec.format(tmp=tmp_path))
    assert type(ledger) is JsonlLedger
    ledger.close()


@pytest.mark.parametrize(
    "spec",
    ["", "memory:x", "memory:", "jsonl:", "sqlite:"],
    ids=["empty", "memory-with-path", "memory-colon", "jsonl-no-path",
         "sqlite-no-path"],
)
def test_bad_specs_raise(spec):
    with pytest.raises(ConfigurationError):
        open_ledger(spec)


# -- the record encoding: json.dumps(record, sort_keys=True), exactly ------

_TEXT = st.lists(
    st.one_of(
        st.characters(),  # non-ASCII included
        st.integers(0, 0x1F).map(chr),  # control characters
        st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
    ),
    max_size=8,
).map("".join)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     5e-324, 1e308, 0.1 + 0.2]),
)
_INTS = st.one_of(st.integers(), st.integers(2**64, 2**200),
                  st.integers(-(2**200), -(2**64)))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_TEXT, _VALUES, max_size=6))
def test_encode_is_json_dumps_sort_keys(record):
    assert _encode(record) == json.dumps(record, sort_keys=True)


def test_unserializable_record_raises_and_writes_nothing(tmp_path):
    path = tmp_path / "l.jsonl"
    ledger = JsonlLedger(str(path))
    ledger.append(RECORDS[0])
    before = path.read_bytes()
    with pytest.raises(TypeError) as raised:
        ledger.append({"op": "push", "job": {"when": object()}})
    with pytest.raises(TypeError) as expected:
        json.dumps({"when": object()}, sort_keys=True)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == "Object of type object is not JSON serializable"
    assert path.read_bytes() == before
    ledger.close()


def test_cyclic_record_raises_and_writes_nothing(tmp_path):
    path = tmp_path / "l.jsonl"
    ledger = JsonlLedger(str(path))
    ledger.append(RECORDS[0])
    before = path.read_bytes()
    cyclic: dict = {"op": "push"}
    cyclic["job"] = cyclic
    with pytest.raises((RecursionError, ValueError)):
        ledger.append(cyclic)
    assert path.read_bytes() == before
    ledger.append(EXTRA)  # the ledger is still usable
    ledger.close()
    reopened = JsonlLedger(str(path))
    assert reopened.read() == ([RECORDS[0], EXTRA], 0)
    reopened.close()


class _TrickleFile:
    """A raw file stand-in that takes at most *n* bytes per ``write``."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.data = b""
        self.calls = 0

    def write(self, data) -> int:
        self.calls += 1
        taken = bytes(data[: self.n])
        self.data += taken
        return len(taken)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_append_completes_a_line_across_short_writes(tmp_path, n):
    ledger = JsonlLedger(str(tmp_path / "l.jsonl"))
    ledger._fh.close()
    ledger._fh = stub = _TrickleFile(n)
    for record in RECORDS:
        ledger.append(record)
    expected = b"".join(
        (json.dumps(r, sort_keys=True) + "\n").encode() for r in RECORDS
    )
    assert stub.data == expected
    assert stub.calls == sum(
        -(-len(line) // n) for line in expected.splitlines(keepends=True)
    )


class _FullDiskFile:
    """A raw file stand-in over a real one: it takes at most *n* bytes per
    ``write`` and raises ``ENOSPC`` on its *fail_at*-th call, once."""

    def __init__(self, raw, n: int, fail_at: int) -> None:
        self.raw = raw
        self.n = n
        self.fail_at = fail_at
        self.calls = 0

    def write(self, data) -> int:
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.raw.write(bytes(data[: self.n]))

    def fileno(self) -> int:
        return self.raw.fileno()

    def close(self) -> None:
        self.raw.close()


@pytest.mark.parametrize("fail_at", [1, 2, 4])
def test_failed_write_leaves_no_fragment_to_weld_onto(tmp_path, fail_at):
    path = tmp_path / "l.jsonl"
    ledger = JsonlLedger(str(path))
    ledger.append(RECORDS[0])
    before = path.read_bytes()
    ledger._fh = _FullDiskFile(ledger._fh, 3, fail_at)
    with pytest.raises(OSError, match="No space"):
        ledger.append(RECORDS[1])
    assert path.read_bytes() == before
    ledger.append(EXTRA)  # the disk has room again
    assert ledger.read() == ([RECORDS[0], EXTRA], 0)
    ledger.close()
    reopened = JsonlLedger(str(path))
    assert reopened.read() == ([RECORDS[0], EXTRA], 0)
    reopened.close()


def test_fragment_that_cannot_be_cut_closes_the_ledger(tmp_path, monkeypatch):
    path = tmp_path / "l.jsonl"
    ledger = JsonlLedger(str(path))
    ledger.append(RECORDS[0])
    ledger._fh = _FullDiskFile(ledger._fh, 3, 2)

    def refuse(fd, length):
        raise OSError(errno.EIO, "I/O error")

    monkeypatch.setattr(ledger_module.os, "ftruncate", refuse)
    with pytest.raises(OSError, match="No space"):
        ledger.append(RECORDS[1])
    with pytest.raises(SCANError, match="closed"):
        ledger.append(EXTRA)
    monkeypatch.undo()
    # The fragment is unacknowledged: read skips it, reopening cuts it.
    assert ledger.read() == ([RECORDS[0]], 1)
    reopened = JsonlLedger(str(path))
    reopened.append(EXTRA)
    assert reopened.read() == ([RECORDS[0], EXTRA], 0)
    reopened.close()


def test_fsync_syncs_once_per_record(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(ledger_module.os, "fsync", synced.append)
    path = tmp_path / "l.jsonl"
    ledger = JsonlLedger(str(path), fsync=True)
    for record in RECORDS:
        ledger.append(record)
    assert synced == [ledger._fh.fileno()] * len(RECORDS)
    ledger.close()
    unsynced = JsonlLedger(str(tmp_path / "m.jsonl"))
    unsynced.append(EXTRA)
    unsynced.close()
    assert len(synced) == len(RECORDS)
    reopened = JsonlLedger(str(path))
    assert reopened.read() == (RECORDS, 0)
    reopened.close()


def test_jsonl_handle_is_an_unbuffered_binary_append(tmp_path):
    ledger = JsonlLedger(str(tmp_path / "l.jsonl"))
    ledger.append(RECORDS[0])
    # Unbuffered: the line is in the file before append returns.
    assert os.path.getsize(tmp_path / "l.jsonl") == len(
        json.dumps(RECORDS[0], sort_keys=True)
    ) + 1
    assert ledger._fh.mode == "ab"
    ledger.close()
