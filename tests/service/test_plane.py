"""ServicePlane orchestration tests: ingest, resilience, reconcile, drain."""

import threading
import time

import pytest

from repro.core.bus import (
    EventBus,
    ServiceJobAccepted,
    ServiceJobFinished,
    ServiceJobPopped,
    ServiceJobRejected,
)
from repro.core.errors import SCANError
from repro.service import ServiceConfig, ServicePlane
from repro.service.plane import PumpedJob
from repro.core.ledger import MemoryLedger
from repro.service.store import QueueStore


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class FakeJob:
    def __init__(self, failed=False):
        self.is_failed = failed


class FakeRequest:
    def __init__(self, complete=False, failed=False):
        self.is_complete = complete
        self.jobs = [FakeJob(failed)]


def _plane(**config_kw):
    clock = FakeClock()
    plane = ServicePlane(
        config=ServiceConfig(**config_kw), bus=EventBus(), clock=clock
    )
    return plane, clock


class TestIngest:
    def test_submit_accept_persists_and_publishes(self):
        plane, _clock = _plane()
        seen = []
        plane.bus.subscribe(ServiceJobAccepted, seen.append)
        decision, job = plane.submit("alice", name="wgs", size_gb=5.0)
        assert decision.accepted
        assert job.uid.startswith("alice-")
        assert plane.queue.depth("alice") == 1
        assert [e.tenant for e in seen] == ["alice"]
        # The accepted job is already on the ledger (write-ahead).
        assert [j.uid for j in plane.store.load().queued] == [job.uid]

    def test_bad_tenant_and_size_raise(self):
        plane, _clock = _plane()
        with pytest.raises(SCANError):
            plane.submit("", name="x", size_gb=1.0)
        with pytest.raises(SCANError):
            plane.submit("a/b", name="x", size_gb=1.0)
        with pytest.raises(SCANError):
            plane.submit("alice", name="x", size_gb=0.0)
        nan, inf = float("nan"), float("inf")
        for size_gb in (nan, inf):
            with pytest.raises(SCANError):
                plane.submit("alice", name="x", size_gb=size_gb)
        for weight in (nan, inf, -inf):
            with pytest.raises(SCANError):
                plane.submit("alice", name="x", size_gb=1.0, weight=weight)
        for deadline in (nan, inf):
            with pytest.raises(SCANError):
                plane.submit("alice", name="x", size_gb=1.0, deadline=deadline)
        assert plane.store.load().queued == []

    def test_queue_full_rejection_publishes_and_counts(self):
        plane, _clock = _plane(tenant_capacity=1)
        rejected = []
        plane.bus.subscribe(ServiceJobRejected, rejected.append)
        plane.submit("alice", name="a", size_gb=1.0)
        decision, job = plane.submit("alice", name="b", size_gb=1.0)
        assert not decision.accepted and job is None
        assert rejected[0].reason == "queue_full"
        assert 'reason="queue_full"' in plane.metrics_text()

    def test_shed_admission_records_victim(self):
        plane, _clock = _plane(
            tenant_capacity=1,
            priority_strategy="smallest_first",
            admission="shed_lowest",
        )
        shed_events = []
        plane.bus.subscribe(ServiceJobRejected, shed_events.append)
        _, big = plane.submit("alice", name="big", size_gb=100.0)
        decision, small = plane.submit("alice", name="small", size_gb=1.0)
        assert decision.accepted
        state = plane.store.load()
        assert [j.uid for j in state.queued] == [small.uid]
        assert state.shed == [big.uid]
        assert [e.reason for e in shed_events] == ["shed"]

    def test_explicit_uid_duplicate_rejected(self):
        plane, _clock = _plane()
        plane.submit("alice", name="a", size_gb=1.0, uid="job-1")
        decision, _ = plane.submit("alice", name="b", size_gb=1.0, uid="job-1")
        assert decision.reason == "duplicate"

    def test_sustained_ingest_and_partial_drain_conserve_jobs(self):
        plane, _clock = _plane(tenant_capacity=4096)
        tenants = [f"tenant-{i:03d}" for i in range(64)]
        n_jobs = 2048
        for i in range(n_jobs):
            decision, _job = plane.submit(
                tenants[i % 64], name=f"job-{i}", size_gb=1.0 + i % 7
            )
            assert decision.accepted
        assert plane.queue.depth() == n_jobs
        seqs = []
        for _ in range(n_jobs // 5):  # drain 20 %
            job = plane.pop()
            seqs.append(job.seq)
            plane.finish(job.uid, "completed")
        # FIFO across 64 tenants: the global pop serves admission order.
        assert seqs == sorted(seqs)
        stats = plane.queue.stats()
        assert stats["accepted"] == stats["queued"] + stats["finished"]
        assert stats["finished"] == n_jobs // 5


class TestResilience:
    def test_breaker_opens_per_tenant_after_failures(self):
        plane, clock = _plane(breaker_threshold=2, breaker_cooldown_s=60.0)
        for i in range(2):
            _, job = plane.submit("alice", name=f"a{i}", size_gb=1.0)
            assert plane.pop(tenant="alice").uid == job.uid
            plane.finish(job.uid, "failed")
        decision, _ = plane.submit("alice", name="a2", size_gb=1.0)
        assert decision.reason == "tenant_suspended"
        # Bob is unaffected: isolation is per tenant.
        assert plane.submit("bob", name="b0", size_gb=1.0)[0].accepted
        # After the cooldown the breaker half-opens and admits again.
        clock.advance(61.0)
        assert plane.submit("alice", name="a3", size_gb=1.0)[0].accepted

    def test_reconcile_requeues_failed_with_attempts_left(self):
        plane, _clock = _plane(max_job_attempts=2)
        finished_events = []
        plane.bus.subscribe(ServiceJobFinished, finished_events.append)
        _, job = plane.submit("alice", name="flaky", size_gb=1.0)
        popped = plane.pop()
        plane._in_flight[popped.uid] = PumpedJob(
            popped, FakeRequest(failed=True)
        )
        outcomes = plane.reconcile()
        assert outcomes == {job.uid: "requeued"}
        assert plane.queue.depth("alice") == 1
        assert finished_events[0].outcome == "requeued"
        # Second failure exhausts the attempts: dead-letter, not requeue.
        popped = plane.pop()
        plane._in_flight[popped.uid] = PumpedJob(
            popped, FakeRequest(failed=True)
        )
        outcomes = plane.reconcile()
        assert outcomes == {job.uid: "failed"}
        assert len(plane.dead_letters("alice")) == 1
        assert plane.finished[job.uid] == "failed"

    def test_reconcile_completes_finished_requests(self):
        plane, _clock = _plane()
        popped_events = []
        plane.bus.subscribe(ServiceJobPopped, popped_events.append)
        _, job = plane.submit("alice", name="ok", size_gb=1.0)
        popped = plane.pop()
        assert popped_events[0].uid == job.uid
        plane._in_flight[popped.uid] = PumpedJob(
            popped, FakeRequest(complete=True)
        )
        assert plane.reconcile() == {job.uid: "completed"}
        stats = plane.queue.stats()
        assert stats["queued"] == 0 and stats["leased"] == 0

    def test_pump_without_platform_raises(self):
        plane, _clock = _plane()
        with pytest.raises(SCANError):
            plane.pump()
        with pytest.raises(SCANError):
            plane.drain()


class FailingStore(QueueStore):
    """A store whose push writes can be made to fail (disk-full stand-in)."""

    def __init__(self):
        super().__init__(MemoryLedger())
        self.fail_pushes = False

    def record_push(self, job):
        if self.fail_pushes:
            raise SCANError("simulated ledger write failure")
        super().record_push(job)


class TestWriteAhead:
    def test_failed_ledger_write_rolls_back_admission(self):
        store = FailingStore()
        plane = ServicePlane(
            config=ServiceConfig(), store=store, bus=EventBus()
        )
        store.fail_pushes = True
        with pytest.raises(SCANError):
            plane.submit("alice", name="a", size_gb=1.0)
        # The job never became visible: not queued, not poppable.
        assert plane.queue.depth("alice") == 0
        assert plane.pop() is None
        store.fail_pushes = False
        decision, job = plane.submit("alice", name="a", size_gb=1.0)
        assert decision.accepted
        assert [j.uid for j in store.load().queued] == [job.uid]

    def test_push_record_lands_before_blocked_popper_leases(self):
        # A worker blocked in pop() must not write a pop ledger record
        # that precedes the push record it resolves: on replay the late
        # push would supersede the finish and resurrect completed work.
        store = QueueStore(MemoryLedger())
        plane = ServicePlane(
            config=ServiceConfig(), store=store, bus=EventBus()
        )
        leased = []
        worker = threading.Thread(
            target=lambda: leased.append(plane.pop(timeout=10.0))
        )
        worker.start()
        time.sleep(0.05)  # let the worker block in pop()
        plane.submit("alice", name="a", size_gb=1.0)
        worker.join(timeout=10.0)
        assert leased and leased[0] is not None
        records, _torn = store.ledger.read()
        assert [r["op"] for r in records] == ["push", "pop"]


class TestRecoveryWiring:
    def test_second_plane_recovers_from_shared_store(self):
        store = QueueStore(MemoryLedger())
        plane, _clock = _plane()
        plane.store = store
        a = plane.submit("alice", name="a", size_gb=1.0)[1]
        b = plane.submit("alice", name="b", size_gb=2.0)[1]
        plane.pop()  # lease "a", never finish: interrupted at crash
        rebuilt = ServicePlane(
            config=ServiceConfig(), store=store, bus=EventBus()
        )
        assert rebuilt.recovered.interrupted == [a.uid]
        assert [j.uid for j in rebuilt.queue] == [a.uid, b.uid]
        # Pop order is preserved across the rebuild.
        assert rebuilt.pop().uid == a.uid
        assert rebuilt.pop().uid == b.uid

    def test_recovered_finished_jobs_stay_deduplicated(self):
        store = QueueStore(MemoryLedger())
        plane, _clock = _plane()
        plane.store = store
        _, job = plane.submit("alice", name="a", size_gb=1.0)
        plane.pop()
        plane.finish(job.uid)
        rebuilt = ServicePlane(
            config=ServiceConfig(), store=store, bus=EventBus()
        )
        assert rebuilt.finished == {job.uid: "completed"}
        decision, _ = rebuilt.submit(
            "alice", name="a", size_gb=1.0, uid=job.uid
        )
        assert decision.reason == "duplicate"


class TestIntrospection:
    def test_tenant_status_and_state_summary(self):
        plane, _clock = _plane()
        plane.submit("alice", name="a", size_gb=1.0)
        plane.submit("bob", name="b", size_gb=1.0)
        status = plane.tenant_status("alice")
        assert status["depth"] == 1
        assert status["breaker"] == "closed"
        summary = plane.state_summary()
        assert summary["tenants"] == ["alice", "bob"]
        assert summary["accepted"] == 2
        assert summary["queued"] == 2

    def test_metrics_text_carries_tenant_labels(self):
        plane, _clock = _plane()
        plane.submit("alice", name="a", size_gb=1.0)
        plane.pop()
        text = plane.metrics_text()
        assert 'scan_service_queue_depth{tenant="alice"}' in text
        assert 'scan_service_jobs_accepted_total{tenant="alice"}' in text
        assert "scan_service_pop_latency_seconds" in text
