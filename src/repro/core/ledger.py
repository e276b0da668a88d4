"""One append-only record log: the persistence under every replayed state.

A ledger does two things: :meth:`Ledger.append` one JSON-serialisable
dict, and :meth:`Ledger.read` every acknowledged record back in append
order.  What a record *means* is the caller's business -- the service
plane's :class:`~repro.service.store.QueueStore` and the sweep engine's
:class:`~repro.sim.results.ResultStore` are replay functions over a
ledger, so crash tolerance is written (and tested) once, here.

Media (``LEDGERS`` registry):

``memory``  a list; survives nothing (tests, benchmarks).
``jsonl``   one JSON line per record, handed to the OS by one ``write``
            on an unbuffered binary append handle, and fsynced only when
            asked.
            Opening truncates a torn final fragment; any other unreadable
            line raises.
``sqlite``  one append-only table (WAL journal, ``synchronous=NORMAL``),
            committed per record; each row holds the same JSON text.

Both durable media encode a record with :func:`_encode`: byte for byte
what ``json.dumps(record, sort_keys=True)`` writes.  ``json.dumps``
builds a fresh C encoder (and a float-formatting closure) on every
call; here that encoder is built once, at import, with the same
separators, key order, ``default`` and NaN handling.  It keeps no
circular-reference markers, so it holds no state between calls: a
cyclic record raises ``RecursionError`` instead of ``ValueError``, and
nothing is written.

What an acknowledged append survives: on ``jsonl`` a killed process
(the OS took the whole line, newline last, before the append returned,
so it sits in the page cache; a kill mid-append leaves at most a
fragment without its newline, which the next open cuts away; a write
that fails part-way is cut back before the error reaches the caller),
and power loss too with ``fsync``; on ``sqlite`` a killed process (the
commit is in the WAL), while power loss may roll back the most recent
commits.
"""

from __future__ import annotations

import io
import json
import os
import threading
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.errors import ConfigurationError, SCANError
from repro.core.plugins import Registry

if TYPE_CHECKING:  # sqlite3 loads only when a SQLite ledger is opened
    import sqlite3

__all__ = [
    "Ledger",
    "MemoryLedger",
    "JsonlLedger",
    "SqliteLedger",
    "LEDGERS",
    "open_ledger",
]


class Ledger:
    """Interface every medium implements: append dicts, read them back."""

    def append(self, record: dict) -> None:
        raise NotImplementedError

    def read(self) -> Tuple[List[dict], int]:
        """The acknowledged records in append order, and the number of
        final fragments skipped: a write still in flight, or one a crash
        tore (JSONL only)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release handles; reopening the same spec continues the log."""


_plain_encoder = json.JSONEncoder(sort_keys=True)
_iterencode = c_make_encoder(
    None,  # no circular-reference markers: the encoder keeps no state
    _plain_encoder.default,
    encode_basestring_ascii,
    None,  # indent
    _plain_encoder.key_separator,
    _plain_encoder.item_separator,
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)


def _encode(record: dict) -> str:
    """The record encoding of every durable medium (module docstring)."""
    return "".join(_iterencode(record, 0))


#: Registry of ledger media.
LEDGERS: "Registry[Ledger]" = Registry("ledger")


def _make_parent(path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


@LEDGERS.register("memory")
class MemoryLedger(Ledger):
    """Records in a list.  Replays exactly like the durable media, which
    is what the persist-restore property tests exploit."""

    def __init__(self) -> None:
        self._records: List[dict] = []
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    def read(self) -> Tuple[List[dict], int]:
        with self._lock:
            return list(self._records), 0


@LEDGERS.register("jsonl")
class JsonlLedger(Ledger):
    """One JSON object per line; the crash-friendliest format there is.

    A record is acknowledged once its newline is written.  Everything
    after the last newline is therefore unacknowledged: :meth:`read`
    skips it, and opening truncates it -- as does an append whose write
    fails part-way -- so the next append cannot weld onto it.  A
    complete line that does not parse is corruption of an acknowledged
    record and raises -- silently skipping it would fake lost work.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._lock = threading.Lock()
        _make_parent(path)
        self._repair_torn_tail()
        self._fh: Optional[io.FileIO] = open(  # noqa: SIM115
            path, "ab", buffering=0
        )

    def _repair_torn_tail(self) -> None:
        """Cut the file back to its last newline (a crash mid-write)."""
        try:
            fh = open(self.path, "rb+")  # noqa: SIM115
        except FileNotFoundError:
            return
        with fh:
            fh.seek(0, os.SEEK_END)
            pos = fh.tell()
            if pos == 0:
                return
            fh.seek(pos - 1)
            if fh.read(1) == b"\n":
                return
            last_nl = -1
            while pos > 0 and last_nl < 0:
                start = max(0, pos - 4096)
                fh.seek(start)
                idx = fh.read(pos - start).rfind(b"\n")
                if idx >= 0:
                    last_nl = start + idx
                pos = start
            fh.truncate(last_nl + 1)

    def append(self, record: dict) -> None:
        line = (_encode(record) + "\n").encode()
        with self._lock:
            fh = self._fh
            if fh is None:
                raise SCANError(f"ledger {self.path!r} is closed")
            # A raw write may take fewer bytes than offered; the record is
            # acknowledged only once all of them, newline last, are taken.
            written = 0
            try:
                written = fh.write(line)
                while written < len(line):
                    written += fh.write(line[written:])
            except BaseException:
                # A raw write that raises took nothing, so the file ends
                # in the *written* bytes taken so far: cut them off, or
                # close the ledger if that fails, so that no later line
                # is appended to the fragment.
                if written:
                    try:
                        fd = fh.fileno()
                        os.ftruncate(fd, os.fstat(fd).st_size - written)
                    except OSError:
                        fh.close()
                        self._fh = None
                raise
            if self.fsync:
                os.fsync(fh.fileno())

    def read(self) -> Tuple[List[dict], int]:
        try:
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except FileNotFoundError:
            lines = [""]
        torn = 1 if lines.pop() else 0
        records = []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:
                raise SCANError(
                    f"corrupt ledger {self.path!r} at line {number}: {exc}"
                ) from exc
            records.append(record)
        return records, torn

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


@LEDGERS.register("sqlite")
class SqliteLedger(Ledger):
    """One append-only table of JSON rows, read back in rowid order."""

    def __init__(self, path: str) -> None:
        import sqlite3

        self.path = path
        self._lock = threading.Lock()
        if path != ":memory:":
            _make_parent(path)
        conn = sqlite3.connect(path, check_same_thread=False)
        try:
            tables = {
                name for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise ConfigurationError(
                f"ledger {path!r} is not a SQLite database: {exc}"
            ) from exc
        if tables - {"ledger"}:
            conn.close()
            # Booting an older row-per-job layout as an empty ledger would
            # silently lose every job it holds.
            raise ConfigurationError(
                f"{path!r} holds tables {', '.join(sorted(tables))}, not a "
                f"ledger; refusing to boot it as an empty one"
            )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS ledger (record TEXT NOT NULL)"
        )
        conn.commit()
        self._conn: Optional[sqlite3.Connection] = conn

    def _live(self) -> sqlite3.Connection:
        if self._conn is None:
            raise SCANError(f"ledger {self.path!r} is closed")
        return self._conn

    def append(self, record: dict) -> None:
        text = _encode(record)
        with self._lock:
            conn = self._live()
            conn.execute("INSERT INTO ledger (record) VALUES (?)", (text,))
            conn.commit()

    def read(self) -> Tuple[List[dict], int]:
        with self._lock:
            rows = self._live().execute(
                "SELECT record FROM ledger ORDER BY rowid"
            ).fetchall()
        return [json.loads(text) for (text,) in rows], 0

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


def open_ledger(spec: str, fsync: bool = False) -> Ledger:
    """Open the ledger a spec string names.

    - ``memory``                               -> :class:`MemoryLedger`
    - ``KIND:PATH`` for a registered medium    -> that medium at PATH
    - ``*.db`` / ``*.sqlite`` / ``*.sqlite3``  -> :class:`SqliteLedger`
    - any other path                           -> :class:`JsonlLedger`

    *fsync* reaches the JSONL medium only.
    """
    if spec == "memory":
        return MemoryLedger()
    if not spec:
        raise ConfigurationError("ledger spec must be non-empty")
    kind, sep, path = spec.partition(":")
    if not (sep and kind in LEDGERS):
        kind = "sqlite" if spec.endswith((".db", ".sqlite", ".sqlite3")) \
            else "jsonl"
        path = spec
    elif kind == "memory":
        raise ConfigurationError(
            f"ledger spec {spec!r}: the memory ledger takes no path"
        )
    elif not path:
        raise ConfigurationError(f"ledger spec {spec!r} needs a path")
    if kind == "jsonl":
        return JsonlLedger(path, fsync)
    return LEDGERS.create(kind, path)
