"""Queue persistence: append-friendly stores the in-memory queues rebuild
from after a restart.

The mula requirement verbatim: "Recreate state of priority queue from
persistent storage, priority queue is maintained in memory."  Each store
is a write-ahead ledger of queue operations:

``push``    a job was accepted (full job record)
``pop``     a job was leased by a worker/pump
``finish``  a leased job resolved (``completed`` / ``failed``)
``shed``    an admission evicted a queued job to make room

:meth:`QueueStore.load` replays the ledger into a :class:`RecoveredState`:
jobs pushed-but-not-finished come back as *queued* -- including jobs that
were leased at the moment of the crash, which re-queue at their original
priority (pop without finish proves the work's fate is unknown, so it
must run again; at-least-once semantics, never lost).  Finished jobs are
remembered by uid so a replayed push cannot duplicate them.

The ledger itself -- memory, JSONL or SQLite, torn-tail repair, the
spec grammar -- is :mod:`repro.core.ledger`; this module only builds the
op records and folds them back.  Open one with
``QueueStore(open_ledger(spec))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.errors import SCANError
from repro.core.ledger import JsonlLedger, Ledger
from repro.service.queue import QueuedJob

__all__ = ["RecoveredState", "QueueStore", "JsonlQueueStore"]


@dataclass
class RecoveredState:
    """What a store replay yields: who is queued, who already finished."""

    #: Jobs to re-queue, in original admission (seq) order.  Includes jobs
    #: leased at crash time (popped, never finished).
    queued: List[QueuedJob] = field(default_factory=list)
    #: uid -> outcome for jobs that resolved before the crash.
    finished: Dict[str, str] = field(default_factory=dict)
    #: uids shed by admission control before the crash.
    shed: List[str] = field(default_factory=list)
    #: Of the re-queued jobs, the uids that were in flight at the crash.
    interrupted: List[str] = field(default_factory=list)
    #: Torn final fragments the ledger read skipped (JSONL only).
    corrupt_records: int = 0

    @property
    def accepted(self) -> int:
        """Every job the lost process ever admitted."""
        return len(self.queued) + len(self.finished) + len(self.shed)


class QueueStore:
    """The queue's write-ahead log: op records in, :class:`RecoveredState`
    out, over any :class:`~repro.core.ledger.Ledger` medium."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger

    def record_push(self, job: QueuedJob) -> None:
        self.ledger.append({"op": "push", "job": job.to_dict()})

    def record_pop(self, job: QueuedJob) -> None:
        self.ledger.append({"op": "pop", "uid": job.uid})

    def record_finish(self, job: QueuedJob, outcome: str) -> None:
        self.ledger.append(
            {"op": "finish", "uid": job.uid, "outcome": outcome}
        )

    def record_shed(self, job: QueuedJob) -> None:
        self.ledger.append({"op": "shed", "uid": job.uid})

    def load(self) -> RecoveredState:
        records, torn = self.ledger.read()
        state = _replay(records)
        state.corrupt_records = torn
        return state

    def close(self) -> None:
        """Release the ledger; reopening its spec resumes the queue."""
        self.ledger.close()

    def __enter__(self) -> "QueueStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class JsonlQueueStore(QueueStore):
    """A :class:`QueueStore` on a :class:`~repro.core.ledger.JsonlLedger`
    at *path*."""

    def __init__(self, path: str, fsync: bool = False) -> None:
        super().__init__(JsonlLedger(path, fsync))


def _replay(records: List[dict]) -> RecoveredState:
    """Fold queue-ledger records into live state."""
    jobs: Dict[str, QueuedJob] = {}
    queued: Dict[str, QueuedJob] = {}
    leased: Dict[str, QueuedJob] = {}
    state = RecoveredState()
    for record in records:
        op = record.get("op")
        if op == "push":
            job = QueuedJob.from_dict(record["job"])
            jobs[job.uid] = job
            queued[job.uid] = job
            # A re-push supersedes an earlier resolution (requeue path).
            state.finished.pop(job.uid, None)
        elif op == "pop":
            job = queued.pop(record["uid"], None)  # type: ignore[arg-type]
            if job is not None:
                leased[job.uid] = job
        elif op == "finish":
            uid = record["uid"]
            leased.pop(uid, None)
            queued.pop(uid, None)
            state.finished[uid] = record.get("outcome", "completed")
        elif op == "shed":
            uid = record["uid"]
            if queued.pop(uid, None) is not None:
                state.shed.append(uid)
        else:
            raise SCANError(f"unknown queue-ledger op {op!r}")
    # Leased-at-crash jobs re-queue at their original priority: popped but
    # never resolved means their fate is unknown, so they must run again.
    live = list(queued.values()) + list(leased.values())
    live.sort(key=lambda job: job.seq)
    state.queued = live
    state.interrupted = sorted(leased, key=lambda uid: leased[uid].seq)
    return state
