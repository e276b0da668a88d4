"""Per-tenant bounded priority queues with pluggable priority strategies.

The mula proposal's core requirements, transplanted onto SCAN:

- a *finite (configurable) number of items* per tenant queue;
- *different calculation strategies* for determining a job's priority,
  easily extended -- here a :class:`~repro.core.plugins.Registry` exactly
  like the allocation/scaling policy registries;
- a thread-safe push/pop API many HTTP handler threads and worker pumps
  can hit concurrently;
- state that can be *recreated from persistent storage* -- every queued
  job round-trips through :meth:`QueuedJob.to_dict`, and pushes accept a
  pre-assigned sequence number so a rebuilt queue pops in the exact order
  the lost process would have.

Priorities are *scores*: totally ordered tuples where **smaller pops
first**.  Every built-in strategy ends its tuple with the job's global
submission sequence number, so ties break FIFO and the order is total --
the Hypothesis property suite holds any strategy to that contract.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import ConfigurationError, SCANError
from repro.core.plugins import Registry

__all__ = [
    "ServiceJobState",
    "QueuedJob",
    "PriorityStrategy",
    "PRIORITY_STRATEGIES",
    "AdmissionDecision",
    "TenantQueue",
    "JobQueue",
]


class ServiceJobState(str, enum.Enum):
    """Service-level lifecycle of one accepted job."""

    #: Accepted and waiting in its tenant's queue.
    QUEUED = "queued"
    #: Popped by a worker/pump; execution in flight.
    LEASED = "leased"
    #: Finished successfully (simulation request completed).
    COMPLETED = "completed"
    #: Finished unsuccessfully (dead-lettered at the service level).
    FAILED = "failed"


@dataclass(frozen=True)
class QueuedJob:
    """One tenant-submitted analysis job, as the queue sees it.

    ``seq`` is the global admission sequence number: strategies use it as
    the final tie-break, and the store persists it so a rebuilt queue
    reproduces the lost process's pop order exactly.  ``submitted_at`` is
    a wall-clock reading from the queue's injectable clock (pop latency =
    pop time - submitted_at).
    """

    uid: str
    tenant: str
    name: str
    size_gb: float
    data_format: str = "fastq"
    #: User-supplied precedence weight (bigger = sooner under ``weighted``).
    weight: float = 1.0
    #: Optional wall-clock deadline (smaller = sooner under ``deadline``).
    deadline: Optional[float] = None
    submitted_at: float = 0.0
    seq: int = 0
    #: Service-level execution attempts already consumed.
    attempts: int = 0

    def to_dict(self) -> dict[str, Any]:
        """A plain JSON-serializable record (store wire format)."""
        return {
            "uid": self.uid,
            "tenant": self.tenant,
            "name": self.name,
            "size_gb": self.size_gb,
            "data_format": self.data_format,
            "weight": self.weight,
            "deadline": self.deadline,
            "submitted_at": self.submitted_at,
            "seq": self.seq,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueuedJob":
        """Rebuild a job from :meth:`to_dict` output."""
        try:
            return cls(
                uid=str(data["uid"]),
                tenant=str(data["tenant"]),
                name=str(data["name"]),
                size_gb=float(data["size_gb"]),
                data_format=str(data.get("data_format", "fastq")),
                weight=float(data.get("weight", 1.0)),
                deadline=(
                    None if data.get("deadline") is None
                    else float(data["deadline"])
                ),
                submitted_at=float(data.get("submitted_at", 0.0)),
                seq=int(data.get("seq", 0)),
                attempts=int(data.get("attempts", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SCANError(f"malformed queued-job record: {exc}") from exc

    def _stamped(
        self, seq: int, submitted_at: float, attempts: int
    ) -> "QueuedJob":
        """A copy with new queue stamps.  A positional constructor call:
        :func:`dataclasses.replace` costs twice as much, and the queue
        restamps on every push and every pop."""
        return self.__class__(
            self.uid, self.tenant, self.name, self.size_gb,
            self.data_format, self.weight, self.deadline,
            submitted_at, seq, attempts,
        )


# -- priority strategies ------------------------------------------------------
#: Score tuples; smaller pops first.
Score = Tuple[Any, ...]


class PriorityStrategy:
    """Base priority calculation: score a job; smaller scores pop first.

    Subclasses override :meth:`score` and MUST return tuples that are
    mutually comparable for any pair of jobs, with a strict total order
    (the built-ins guarantee this by ending every tuple with ``job.seq``,
    which is unique).
    """

    name = "base"

    def score(self, job: QueuedJob) -> Score:
        raise NotImplementedError


#: Registry of priority-calculation strategies (mula: "should be able to
#: implement different calculation strategies ... easily extended").
PRIORITY_STRATEGIES: "Registry[PriorityStrategy]" = Registry("priority")


@PRIORITY_STRATEGIES.register("fifo")
class FifoStrategy(PriorityStrategy):
    """Strict admission order (the seed's implicit behaviour)."""

    name = "fifo"

    def score(self, job: QueuedJob) -> Score:
        return (job.seq,)


@PRIORITY_STRATEGIES.register("smallest_first")
class SmallestFirstStrategy(PriorityStrategy):
    """Shortest-job-first on input size; FIFO among equals."""

    name = "smallest_first"

    def score(self, job: QueuedJob) -> Score:
        return (job.size_gb, job.seq)


@PRIORITY_STRATEGIES.register("largest_first")
class LargestFirstStrategy(PriorityStrategy):
    """Biggest input first (drain the heavy tail while the tier is cold)."""

    name = "largest_first"

    def score(self, job: QueuedJob) -> Score:
        return (-job.size_gb, job.seq)


@PRIORITY_STRATEGIES.register("weighted")
class WeightedStrategy(PriorityStrategy):
    """User-supplied precedence: higher weight pops sooner.

    The mula proposal's motivating case -- "job's created by the user get
    precedence over jobs that are created by the internal rescheduling
    processes" -- maps onto weights (e.g. interactive 10, batch 1).
    """

    name = "weighted"

    def score(self, job: QueuedJob) -> Score:
        return (-job.weight, job.seq)


@PRIORITY_STRATEGIES.register("deadline")
class DeadlineStrategy(PriorityStrategy):
    """Earliest deadline first; deadline-less jobs queue behind, FIFO."""

    name = "deadline"

    def score(self, job: QueuedJob) -> Score:
        deadline = job.deadline if job.deadline is not None else float("inf")
        return (deadline, job.seq)


def make_strategy(name: "str | PriorityStrategy") -> PriorityStrategy:
    """Resolve a strategy by registry name (instances pass through)."""
    if isinstance(name, PriorityStrategy):
        return name
    return PRIORITY_STRATEGIES.create(name)


# -- admission ----------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one push: accepted, or rejected with a stable reason.

    Reasons are part of the RPC error contract:

    - ``queue_full``       -> 429 (tenant at capacity, nothing sheddable)
    - ``shed``             -> the *victim* of a shed-lowest admission
    - ``duplicate``        -> 409 (uid already known to this queue)
    - ``tenant_suspended`` -> 503 (the tenant's circuit breaker is open)
    """

    accepted: bool
    reason: str = "accepted"
    #: On a shed-mode admission, the job evicted to make room.
    shed: Optional[QueuedJob] = None
    #: On acceptance, the job as queued (seq/submitted_at stamped).
    job: Optional[QueuedJob] = None

    ACCEPTED = "accepted"
    QUEUE_FULL = "queue_full"
    SHED = "shed"
    DUPLICATE = "duplicate"
    SUSPENDED = "tenant_suspended"


class TenantQueue:
    """One tenant's bounded in-memory priority heap (not thread-safe;
    :class:`JobQueue` holds the lock)."""

    __slots__ = ("tenant", "capacity", "_heap", "_uids")

    def __init__(self, tenant: str, capacity: int) -> None:
        self.tenant = tenant
        self.capacity = capacity
        self._heap: List[Tuple[Score, QueuedJob]] = []
        self._uids: Dict[str, QueuedJob] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, uid: str) -> bool:
        return uid in self._uids

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.capacity

    def push(self, score: Score, job: QueuedJob) -> None:
        heappush(self._heap, (score, job))
        self._uids[job.uid] = job

    def pop(self) -> QueuedJob:
        _score, job = heappop(self._heap)
        del self._uids[job.uid]
        return job

    def peek_score(self) -> Optional[Score]:
        return self._heap[0][0] if self._heap else None

    def evict_worst(self) -> Tuple[Score, QueuedJob]:
        """Remove and return the entry that would pop LAST."""
        worst_i = max(range(len(self._heap)), key=lambda i: self._heap[i][0])
        score, job = self._heap.pop(worst_i)
        if worst_i < len(self._heap):
            # Restore the heap invariant after the positional removal.  The
            # head stays put whenever another job remains: the worst of two
            # or more jobs is never the best.
            heapify(self._heap)
        del self._uids[job.uid]
        return score, job

    def jobs_in_order(self) -> List[QueuedJob]:
        """Queued jobs in pop order (snapshot; does not drain)."""
        return [job for _score, job in sorted(self._heap)]


class JobQueue:
    """The multi-tenant front queue: thread-safe push/pop + admission.

    One lock (a :class:`threading.Condition`) guards every tenant heap --
    handler threads push, pump threads pop (optionally blocking), and the
    accounting invariant

        ``accepted == queued + leased + finished``

    holds at every quiescent point, which is exactly what the crash
    recovery test asserts across a kill/rebuild cycle.

    A global pop finds the best tenant through a *head index*: a lazy
    min-heap of ``(head score, tenant)`` entries.  Whenever a tenant gets
    a new head (a push that beats it, or a pop that exposes the next
    job) an entry goes in.  An entry is live while its score is the very
    tuple heading that tenant's heap (an identity test: exact, and cheaper
    than comparing tuples); a global pop discards dead entries off the
    top before taking the first live one.  Equal scores therefore break
    to the lowest tenant name.  Tenant-scoped pops leave their old
    entry behind, so the index is rebuilt from the live heads once it
    outgrows ``2 * tenants + HEAD_INDEX_SLACK`` entries.
    """

    #: Dead head-index entries tolerated beyond twice the tenant count.
    HEAD_INDEX_SLACK = 8

    def __init__(
        self,
        capacity: int = 1024,
        strategy: "str | PriorityStrategy" = "fifo",
        admission: str = "reject",
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        if admission not in ("reject", "shed_lowest"):
            raise ConfigurationError(
                f"unknown admission policy {admission!r}; "
                "known: reject, shed_lowest"
            )
        self.capacity = capacity
        self.strategy = make_strategy(strategy)
        self.admission = admission
        self._clock = clock if clock is not None else _default_clock
        self._cond = threading.Condition()
        self._tenants: Dict[str, TenantQueue] = {}
        #: The head index: ``(head score, tenant)``, a lazy min-heap.
        self._heads: List[Tuple[Score, str]] = []
        #: uid -> tenant for every *queued* job: uids key the persistent
        #: ledger, so they must be unique across ALL tenants, not just
        #: within one tenant's queue.
        self._queued_uids: Dict[str, str] = {}
        self._leased: Dict[str, QueuedJob] = {}
        self._finished: Dict[str, str] = {}
        self._seq = itertools.count(1)
        # Counters (read under the lock via stats()).
        self.accepted_count = 0
        self.rejected_count = 0
        self.shed_count = 0

    # -- push ----------------------------------------------------------------
    def push(
        self,
        job: QueuedJob,
        *,
        preserve_seq: bool = False,
        on_admit: Optional[Callable[[AdmissionDecision], None]] = None,
    ) -> AdmissionDecision:
        """Admit *job* into its tenant's queue (or reject/shed).

        ``preserve_seq`` is the store-replay / requeue path: the job
        keeps its persisted sequence number (and ``submitted_at``) so the
        rebuilt heap pops in the original order.  Replayed jobs also
        bypass the capacity bound -- they were already admitted once, and
        a crash that left ``capacity`` queued plus more leased must not
        lose the overflow (the queue drains back under the bound; only
        fresh submissions are capacity-checked).  Fresh submissions get
        the next global sequence number and the current clock reading.

        ``on_admit`` is the write-ahead hook: it runs under the queue
        lock with the final (seq-stamped) decision *before* the job is
        inserted, so a popper can never lease the job before the hook's
        ledger write lands -- a pop/finish record cannot precede its push
        record.  If the hook raises, the push is rolled back (the shed
        victim stays queued, the newcomer never becomes visible) and the
        exception propagates.
        """
        with self._cond:
            if not preserve_seq:
                job = job._stamped(
                    next(self._seq), self._clock(), job.attempts
                )
            else:
                # Keep the fresh-push counter ahead of every replayed seq.
                self._bump_seq_past(job.seq)
            tq = self._tenants.get(job.tenant)
            if tq is None:
                tq = self._tenants[job.tenant] = TenantQueue(
                    job.tenant, self.capacity
                )
            if (
                job.uid in self._queued_uids
                or job.uid in self._leased
                or job.uid in self._finished
            ):
                self.rejected_count += 1
                return AdmissionDecision(False, AdmissionDecision.DUPLICATE)
            score = self.strategy.score(job)
            shed_job: Optional[QueuedJob] = None
            shed_score: Optional[Score] = None
            if tq.full and not preserve_seq:
                if self.admission == "reject":
                    self.rejected_count += 1
                    return AdmissionDecision(
                        False, AdmissionDecision.QUEUE_FULL
                    )
                worst_score, worst = tq.evict_worst()
                if score >= worst_score:
                    # The newcomer would itself be the worst: put the
                    # victim back and reject the newcomer instead.
                    tq.push(worst_score, worst)
                    self.rejected_count += 1
                    return AdmissionDecision(
                        False, AdmissionDecision.QUEUE_FULL
                    )
                shed_job, shed_score = worst, worst_score
            decision = AdmissionDecision(
                True, AdmissionDecision.ACCEPTED, shed_job, job
            )
            if on_admit is not None:
                try:
                    on_admit(decision)
                except BaseException:
                    if shed_job is not None:
                        tq.push(shed_score, shed_job)
                    raise
            if shed_job is not None:
                self.shed_count += 1
                del self._queued_uids[shed_job.uid]
            tq.push(score, job)
            if tq.peek_score() is score:
                self._index_head(tq)
            self._queued_uids[job.uid] = job.tenant
            self.accepted_count += 1
            self._cond.notify()
            return decision

    def _index_head(self, tq: TenantQueue) -> None:
        """Enter *tq*'s new head into the head index (bounded rebuild)."""
        heappush(self._heads, (tq.peek_score(), tq.tenant))
        if len(self._heads) > 2 * len(self._tenants) + self.HEAD_INDEX_SLACK:
            self._heads = [
                (t.peek_score(), t.tenant)
                for t in self._tenants.values() if len(t)
            ]
            heapify(self._heads)

    def _bump_seq_past(self, seq: int) -> None:
        current = next(self._seq)
        self._seq = itertools.count(max(current, seq + 1))

    # -- pop -----------------------------------------------------------------
    def pop(
        self,
        tenant: Optional[str] = None,
        timeout: Optional[float] = 0.0,
    ) -> Optional[QueuedJob]:
        """Lease the best-scoring queued job (of *tenant*, or globally).

        ``timeout=0`` polls; ``timeout=None`` blocks until a job arrives;
        a positive timeout blocks at most that long.  Returns ``None``
        when nothing is available.  The popped job is *leased*, not gone:
        :meth:`finish` (or a crash-recovery replay) decides its fate.

        The blocking deadline is measured on the *real* clock, not the
        injectable one: :meth:`threading.Condition.wait` sleeps in real
        time, so a frozen/simulated clock (the recovery-test use) would
        otherwise make a positive timeout never expire.
        """
        with self._cond:
            if timeout == 0.0:
                return self._pop_locked(tenant)
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                job = self._pop_locked(tenant)
                if job is not None:
                    return job
                wait = None
                if deadline is not None:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        return None
                self._cond.wait(wait)

    def _pop_locked(self, tenant: Optional[str]) -> Optional[QueuedJob]:
        if tenant is not None:
            tq = self._tenants.get(tenant)
            if tq is None or not len(tq):
                return None
            job = tq.pop()
            if len(tq):
                self._index_head(tq)
        else:
            heads = self._heads
            while heads:
                score, name = heads[0]
                tq = self._tenants[name]
                if tq.peek_score() is score:
                    break
                heappop(heads)  # a dead entry: that head has moved on
            else:
                return None
            job = tq.pop()
            if len(tq):
                heapreplace(heads, (tq.peek_score(), name))
            else:
                heappop(heads)
        del self._queued_uids[job.uid]
        job = job._stamped(job.seq, job.submitted_at, job.attempts + 1)
        self._leased[job.uid] = job
        return job

    # -- lease resolution ----------------------------------------------------
    def finish(self, uid: str, outcome: str = "completed") -> QueuedJob:
        """Resolve a leased job (``completed`` / ``failed``)."""
        with self._cond:
            job = self._leased.pop(uid, None)
            if job is None:
                raise SCANError(f"no leased job with uid {uid!r}")
            self._finished[uid] = outcome
            return job

    def remember_finished(self, uid: str, outcome: str) -> None:
        """Seed the dedup set with an already-resolved uid (recovery path).

        A rebuilt queue must keep rejecting re-submissions of jobs the
        lost process completed, or a crash-replay client would duplicate
        work the ledger already acknowledged.
        """
        with self._cond:
            if uid not in self._finished:
                # Carry the lost process's accounting so the conservation
                # invariant (accepted == queued + leased + finished) holds
                # across the rebuild.
                self.accepted_count += 1
            self._finished[uid] = outcome

    def requeue(
        self,
        uid: str,
        on_admit: Optional[Callable[[AdmissionDecision], None]] = None,
    ) -> QueuedJob:
        """Return a leased job to its queue (retry path); keeps its seq."""
        with self._cond:
            job = self._leased.pop(uid, None)
            if job is None:
                raise SCANError(f"no leased job with uid {uid!r}")
        # push() re-takes the lock; accepted_count deliberately counts the
        # re-admission so accepted == pushes, matching the store's ledger.
        try:
            decision = self.push(job, preserve_seq=True, on_admit=on_admit)
        except BaseException:
            with self._cond:
                self._leased[uid] = job
            raise
        if not decision.accepted:  # pragma: no cover - capacity race only
            raise SCANError(
                f"cannot requeue {uid!r}: {decision.reason}"
            )
        return job

    # -- introspection -------------------------------------------------------
    def depth(self, tenant: Optional[str] = None) -> int:
        """Queued jobs for one tenant (or all tenants)."""
        with self._cond:
            if tenant is not None:
                tq = self._tenants.get(tenant)
                return len(tq) if tq is not None else 0
            return sum(len(tq) for tq in self._tenants.values())

    def depths(self) -> Dict[str, int]:
        """Per-tenant queue depths (sorted by tenant)."""
        with self._cond:
            return {
                name: len(self._tenants[name])
                for name in sorted(self._tenants)
            }

    def tenants(self) -> List[str]:
        with self._cond:
            return sorted(self._tenants)

    def leased(self) -> List[QueuedJob]:
        """Currently-leased jobs (pop order not guaranteed)."""
        with self._cond:
            return sorted(self._leased.values(), key=lambda j: j.seq)

    def snapshot(
        self, tenant: str, limit: Optional[int] = None
    ) -> List[QueuedJob]:
        """One tenant's queued jobs in pop order (head of queue first)."""
        with self._cond:
            tq = self._tenants.get(tenant)
            if tq is None:
                return []
            jobs = tq.jobs_in_order()
        return jobs if limit is None else jobs[:limit]

    def stats(self) -> Dict[str, Any]:
        """Accounting snapshot; the conservation invariant lives here."""
        with self._cond:
            queued = sum(len(tq) for tq in self._tenants.values())
            return {
                "accepted": self.accepted_count,
                "rejected": self.rejected_count,
                "shed": self.shed_count,
                "queued": queued,
                "leased": len(self._leased),
                "finished": len(self._finished),
                "tenants": len(self._tenants),
            }

    def __iter__(self) -> Iterator[QueuedJob]:
        """Every queued job, tenants sorted, each in pop order."""
        with self._cond:
            snapshot = [
                job
                for name in sorted(self._tenants)
                for job in self._tenants[name].jobs_in_order()
            ]
        return iter(snapshot)


def _default_clock() -> float:
    return time.monotonic()
