"""The ServicePlane: queue + store + platform, wired into one service.

This is the orchestrator of the persistent scheduler service:

- **ingest**: :meth:`submit` runs admission control (per-tenant breaker,
  then the bounded priority queue) and write-aheads every accepted job to
  the :class:`~repro.service.store.QueueStore`;
- **pump**: :meth:`pump` pops jobs in priority order and submits them to
  the wrapped :class:`~repro.core.platform.SCANPlatform` as analysis
  requests; :meth:`drain` pumps, advances the simulation, and
  :meth:`reconcile`\\ s completions back into the ledger;
- **recovery**: construction replays the store -- every job the lost
  process accepted is either remembered as finished or re-queued at its
  original priority (leased-at-crash jobs included), mula-style;
- **isolation**: the PR-1 circuit breaker and dead-letter queue become
  *per-tenant* here -- one tenant's failing jobs open that tenant's
  breaker (503 on submit) and quarantine in that tenant's dead-letter
  queue without touching anyone else's traffic;
- **observability**: every queue metric carries a ``tenant`` label on the
  PR-2 registry, and lifecycle transitions republish on the PR-4 bus
  (``ServiceJobAccepted`` / ``Rejected`` / ``Popped`` / ``Finished``).
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.bus import (
    EventBus,
    ServiceJobAccepted,
    ServiceJobFinished,
    ServiceJobPopped,
    ServiceJobRejected,
)
from repro.core.errors import SCANError
from repro.core.ledger import open_ledger
from repro.scheduler.resilience import CircuitBreaker, DeadLetterQueue
from repro.service.config import ServiceConfig
from repro.service.queue import AdmissionDecision, JobQueue, QueuedJob
from repro.service.store import QueueStore, RecoveredState
from repro.telemetry.metrics import (
    POP_LATENCY_BUCKETS_S,
    MetricsRegistry,
)

__all__ = ["ServicePlane", "PumpedJob"]


class PumpedJob:
    """One popped job bound to its live analysis request."""

    __slots__ = ("job", "request")

    def __init__(self, job: QueuedJob, request: Any) -> None:
        self.job = job
        self.request = request


class ServicePlane:
    """A persistent, multi-tenant scheduler service over one platform.

    ``platform`` may be ``None`` for queue-only deployments (pure-ingest
    benchmarks, store soak tests); :meth:`pump`/:meth:`drain` then raise.

    The wall clock is injectable so recovery tests can freeze time; the
    simulation clock (bus-event timestamps) always comes from the
    platform's environment, or 0.0 without a platform.
    """

    def __init__(
        self,
        platform: Optional[Any] = None,
        config: Optional[ServiceConfig] = None,
        store: "QueueStore | str | None" = None,
        metrics: Optional[MetricsRegistry] = None,
        bus: Optional[EventBus] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = (config or ServiceConfig()).validate()
        self.platform = platform
        self._clock = clock if clock is not None else time.monotonic
        if store is None:
            store = self.config.store
        self.store: QueueStore = (
            QueueStore(open_ledger(store)) if isinstance(store, str)
            else store
        )
        self.bus = bus if bus is not None else (
            platform.bus if platform is not None else EventBus()
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.queue = JobQueue(
            capacity=self.config.tenant_capacity,
            strategy=self.config.priority_strategy,
            admission=self.config.admission,
            clock=self._clock,
        )
        # Per-tenant resilience: the PR-1 machinery, one instance each.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._dead_letters: Dict[str, DeadLetterQueue] = {}
        self._uid_counter = itertools.count(1)
        #: Leased jobs currently bound to live analysis requests.
        self._in_flight: Dict[str, PumpedJob] = {}
        #: uid -> outcome, local view of the resolved ledger.
        self.finished: Dict[str, str] = {}

        # Metric families (tenant-labelled from day one).
        self._m_depth = self.metrics.gauge(
            "service_queue_depth", "queued jobs per tenant",
            labelnames=("tenant",),
        )
        self._m_accepted = self.metrics.counter(
            "service_jobs_accepted_total", "jobs admitted per tenant",
            labelnames=("tenant",),
        )
        self._m_rejected = self.metrics.counter(
            "service_admission_rejected_total",
            "admission rejections per tenant and reason",
            labelnames=("tenant", "reason"),
        )
        self._m_pop_latency = self.metrics.histogram(
            "service_pop_latency_seconds",
            "wall time a job waited in its queue before being popped",
            buckets=POP_LATENCY_BUCKETS_S,
            labelnames=("tenant",),
        )
        self._m_finished = self.metrics.counter(
            "service_jobs_finished_total",
            "jobs resolved per tenant and outcome",
            labelnames=("tenant", "outcome"),
        )
        self.recovered: RecoveredState = self._recover()

    # -- recovery ------------------------------------------------------------
    def _recover(self) -> RecoveredState:
        """Rebuild the in-memory queues from the persistent store."""
        state = self.store.load()
        # Advance the auto-uid counter past every recovered uid's numeric
        # suffix: a fresh boot restarts the counter at 1, and without this
        # a post-restart submit() without an explicit uid would mint a uid
        # the ledger already knows and bounce as a spurious duplicate.
        max_suffix = 0
        for uid in itertools.chain(
            (job.uid for job in state.queued), state.finished, state.shed
        ):
            head, _, tail = uid.rpartition("-")
            if head and tail.isdigit():
                max_suffix = max(max_suffix, int(tail))
        self._uid_counter = itertools.count(max_suffix + 1)
        for job in state.queued:
            decision = self.queue.push(job, preserve_seq=True)
            if not decision.accepted:
                # A replayed job can only bounce as a duplicate of another
                # replayed record; losing it silently would violate the
                # no-accepted-job-lost contract.
                raise SCANError(
                    f"recovery could not re-queue job {job.uid!r}: "
                    f"{decision.reason}"
                )
            self._m_accepted.inc(tenant=job.tenant)
            self._m_depth.set(
                self.queue.depth(job.tenant), tenant=job.tenant
            )
        for uid, outcome in state.finished.items():
            self.queue.remember_finished(uid, outcome)
        self.finished.update(state.finished)
        return state

    # -- clocks --------------------------------------------------------------
    @property
    def _sim_now(self) -> float:
        return self.platform.env.now if self.platform is not None else 0.0

    # -- per-tenant resilience ----------------------------------------------
    def breaker(self, tenant: str) -> CircuitBreaker:
        """The tenant's circuit breaker (created on first use)."""
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = self._breakers[tenant] = CircuitBreaker(
                threshold=self.config.breaker_threshold,
                cooldown_tu=self.config.breaker_cooldown_s,
            )
        return breaker

    def dead_letters(self, tenant: str) -> DeadLetterQueue:
        """The tenant's dead-letter queue (created on first use)."""
        dlq = self._dead_letters.get(tenant)
        if dlq is None:
            dlq = self._dead_letters[tenant] = DeadLetterQueue()
        return dlq

    # -- ingest --------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        name: str,
        size_gb: float,
        data_format: str = "fastq",
        weight: float = 1.0,
        deadline: Optional[float] = None,
        uid: Optional[str] = None,
    ) -> Tuple[AdmissionDecision, Optional[QueuedJob]]:
        """Admit one job for *tenant*; returns (decision, queued job).

        The write-ahead ordering is deliberate: the push (and any shed
        victim's exit) is persisted under the queue lock *before* the job
        becomes visible to poppers, so a worker's pop/finish ledger
        record can never precede the push record it resolves -- replay
        would otherwise resurrect finished work.  The newcomer's push is
        written before the victim's shed, so a crash between the two
        leaves both in the ledger (replay tolerates the overflow) rather
        than dropping an acknowledged job for a never-persisted newcomer.
        """
        if not tenant or "/" in tenant:
            raise SCANError(f"bad tenant id {tenant!r}")
        if not (math.isfinite(size_gb) and size_gb > 0):
            raise SCANError(f"size_gb must be positive and finite, got {size_gb}")
        if not math.isfinite(weight):
            raise SCANError(f"weight must be finite, got {weight}")
        if deadline is not None and not math.isfinite(deadline):
            raise SCANError(f"deadline must be finite, got {deadline}")
        if not self.breaker(tenant).allow(self._clock()):
            decision = AdmissionDecision(False, AdmissionDecision.SUSPENDED)
            self._note_rejection(tenant, uid or name, decision.reason)
            return decision, None
        job = QueuedJob(
            uid=uid if uid is not None else
            f"{tenant}-{next(self._uid_counter):08d}",
            tenant=tenant,
            name=name,
            size_gb=size_gb,
            data_format=data_format,
            weight=weight,
            deadline=deadline,
        )
        def write_ahead(admitted: AdmissionDecision) -> None:
            # Runs under the queue lock, before the job is poppable; the
            # queue stamped seq/submitted_at, persist that exact record.
            self.store.record_push(admitted.job)
            if admitted.shed is not None:
                # The victim of a shed-lowest admission leaves the ledger.
                self.store.record_shed(admitted.shed)

        decision = self.queue.push(job, on_admit=write_ahead)
        if not decision.accepted:
            self._note_rejection(tenant, job.uid, decision.reason)
            return decision, None
        if decision.shed is not None:
            self._note_rejection(
                decision.shed.tenant,
                decision.shed.uid,
                AdmissionDecision.SHED,
            )
        stamped = decision.job if decision.job is not None else job
        depth = self.queue.depth(tenant)
        self._m_accepted.inc(tenant=tenant)
        self._m_depth.set(depth, tenant=tenant)
        if ServiceJobAccepted in self.bus:
            self.bus.publish(ServiceJobAccepted(
                time=self._sim_now, tenant=tenant, uid=stamped.uid,
                size_gb=size_gb, depth=depth,
            ))
        return decision, stamped

    def _note_rejection(self, tenant: str, uid: str, reason: str) -> None:
        self._m_rejected.inc(tenant=tenant, reason=reason)
        self._m_depth.set(self.queue.depth(tenant), tenant=tenant)
        if ServiceJobRejected in self.bus:
            self.bus.publish(ServiceJobRejected(
                time=self._sim_now, tenant=tenant, uid=uid, reason=reason,
            ))

    # -- pop / pump ----------------------------------------------------------
    def pop(
        self,
        tenant: Optional[str] = None,
        timeout: Optional[float] = 0.0,
    ) -> Optional[QueuedJob]:
        """Lease the next job (external-worker API; also used by pump)."""
        job = self.queue.pop(tenant=tenant, timeout=timeout)
        if job is None:
            return None
        self.store.record_pop(job)
        wait_s = max(self._clock() - job.submitted_at, 0.0)
        self._m_pop_latency.observe(wait_s, tenant=job.tenant)
        self._m_depth.set(self.queue.depth(job.tenant), tenant=job.tenant)
        if ServiceJobPopped in self.bus:
            self.bus.publish(ServiceJobPopped(
                time=self._sim_now, tenant=job.tenant, uid=job.uid,
                wait_s=wait_s,
            ))
        return job

    def finish(self, uid: str, outcome: str = "completed") -> QueuedJob:
        """Resolve a leased job (external-worker API)."""
        job = self.queue.finish(uid, outcome)
        self.store.record_finish(job, outcome)
        self.finished[uid] = outcome
        self._in_flight.pop(uid, None)
        self._m_finished.inc(tenant=job.tenant, outcome=outcome)
        now = self._clock()
        if outcome == "completed":
            self.breaker(job.tenant).record_success(now)
        else:
            self.breaker(job.tenant).record_failure(now)
        if ServiceJobFinished in self.bus:
            self.bus.publish(ServiceJobFinished(
                time=self._sim_now, tenant=job.tenant, uid=uid,
                outcome=outcome,
            ))
        return job

    def pump(
        self, max_jobs: Optional[int] = None, tenant: Optional[str] = None
    ) -> List[PumpedJob]:
        """Pop queued jobs in priority order into the platform scheduler.

        Submission order is exactly pop order, so a single-tenant FIFO
        deployment replays the in-process ``submit_analysis`` call
        sequence verbatim -- the golden equivalence test rides on this.
        """
        if self.platform is None:
            raise SCANError("this service plane has no platform to pump into")
        from repro.genomics.datasets import DataFormat, DatasetDescriptor

        pumped: List[PumpedJob] = []
        while max_jobs is None or len(pumped) < max_jobs:
            job = self.pop(tenant=tenant)
            if job is None:
                break
            try:
                fmt = DataFormat(job.data_format)
            except ValueError:
                self.dead_letters(job.tenant).push(
                    job, f"unknown format {job.data_format!r}", self._sim_now
                )
                self.finish(job.uid, "failed")
                continue
            dataset = DatasetDescriptor.from_size(job.name, fmt, job.size_gb)
            request = self.platform.submit_analysis(dataset)
            entry = PumpedJob(job, request)
            self._in_flight[job.uid] = entry
            pumped.append(entry)
        return pumped

    def reconcile(self) -> Dict[str, str]:
        """Fold completed/failed analysis requests back into the ledger.

        Call after advancing the simulation.  A completed request
        resolves its job as ``completed``; a request whose pipeline
        dead-lettered resolves as ``failed``: the job lands in its
        tenant's dead-letter queue (or re-queues while it has service
        attempts left) and the tenant's breaker records the failure.
        Requests still making progress stay leased.
        """
        outcomes: Dict[str, str] = {}
        for uid, entry in list(self._in_flight.items()):
            request = entry.request
            if request.is_complete:
                self.finish(uid, "completed")
                outcomes[uid] = "completed"
            elif any(j.is_failed for j in request.jobs):
                job = entry.job
                if job.attempts < self.config.max_job_attempts:
                    self._in_flight.pop(uid, None)
                    self.store.record_finish(job, "requeued")
                    # Write-ahead like submit(): the re-push record lands
                    # before the job is poppable again.
                    requeued = self.queue.requeue(
                        uid,
                        on_admit=lambda d: self.store.record_push(d.job),
                    )
                    self._m_depth.set(
                        self.queue.depth(job.tenant), tenant=job.tenant
                    )
                    self._m_finished.inc(
                        tenant=job.tenant, outcome="requeued"
                    )
                    self.breaker(job.tenant).record_failure(self._clock())
                    if ServiceJobFinished in self.bus:
                        self.bus.publish(ServiceJobFinished(
                            time=self._sim_now, tenant=job.tenant,
                            uid=uid, outcome="requeued",
                        ))
                    outcomes[uid] = "requeued"
                else:
                    self.dead_letters(job.tenant).push(
                        job, "pipeline dead-lettered", self._sim_now
                    )
                    self.finish(uid, "failed")
                    outcomes[uid] = "failed"
        return outcomes

    def drain(
        self,
        max_jobs: Optional[int] = None,
        tenant: Optional[str] = None,
        until: Optional[float] = None,
        limit_tu: float = 1e7,
    ) -> Dict[str, str]:
        """Pump, advance the simulation, reconcile; returns uid->outcome.

        With an explicit *until* the simulation advances to that time;
        otherwise it steps only until every pumped request has settled
        (completed or dead-lettered), bounded by *limit_tu* simulated
        time units -- the platform's calendar never fully quiesces
        (scaling/monitoring processes run forever), so an unbounded run
        would not return.
        """
        if self.platform is None:
            raise SCANError("this service plane has no platform to drain into")
        self.pump(max_jobs=max_jobs, tenant=tenant)
        if until is not None:
            self.platform.run(until=until)
        else:
            self._settle(limit_tu)
        return self.reconcile()

    def _settle(self, limit_tu: float) -> None:
        """Step the simulation until every in-flight request resolves."""
        env = self.platform.env
        deadline = env.now + limit_tu

        def pending() -> bool:
            return any(
                not e.request.is_complete
                and not any(j.is_failed for j in e.request.jobs)
                for e in self._in_flight.values()
            )

        while pending():
            nxt = env.peek()
            if nxt == float("inf") or nxt > deadline:
                break
            # Settlement only changes at event boundaries; checking the
            # in-flight set every event would be quadratic, so burst.
            for _ in range(32):
                if env.peek() == float("inf"):
                    break
                env.step()
        # Zero-width advance: finalizes completed requests' bookkeeping
        # (completed_at stamps, merged outputs) without moving the clock.
        self.platform.run(until=env.now)

    # -- introspection -------------------------------------------------------
    def tenants(self) -> List[str]:
        """Every tenant seen by queue, breakers, or dead letters."""
        names = set(self.queue.tenants())
        names.update(self._breakers)
        names.update(self._dead_letters)
        return sorted(names)

    def tenant_status(self, tenant: str) -> Dict[str, Any]:
        """One tenant's live queue/breaker/dead-letter picture."""
        now = self._clock()
        return {
            "tenant": tenant,
            "depth": self.queue.depth(tenant),
            "capacity": self.config.tenant_capacity,
            "breaker": self.breaker(tenant).state(now).value,
            "dead_letters": len(self.dead_letters(tenant)),
        }

    def state_summary(self) -> Dict[str, Any]:
        """Global accounting: the recovery invariant's observable."""
        stats = self.queue.stats()
        outcome_counts: Dict[str, int] = {}
        for outcome in self.finished.values():
            outcome_counts[outcome] = outcome_counts.get(outcome, 0) + 1
        return {
            "tenants": self.tenants(),
            "queued": stats["queued"],
            "leased": stats["leased"],
            "in_flight": len(self._in_flight),
            "finished": outcome_counts,
            "accepted": stats["accepted"],
            "rejected": stats["rejected"],
            "shed": stats["shed"],
            "dead_letters": {
                tenant: len(dlq)
                for tenant, dlq in sorted(self._dead_letters.items())
                if len(dlq)
            },
            "recovered_queued": len(self.recovered.queued),
            "recovered_interrupted": len(self.recovered.interrupted),
        }

    def metrics_text(self) -> str:
        """The tenant-labelled Prometheus exposition."""
        return self.metrics.expose()

    def close(self) -> None:
        self.store.close()
