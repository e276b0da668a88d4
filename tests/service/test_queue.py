"""Unit tests for the multi-tenant bounded priority queue."""

import random
import sys
import threading
import time

import pytest

from repro.core.errors import ConfigurationError, SCANError
from repro.service.queue import (
    PRIORITY_STRATEGIES,
    AdmissionDecision,
    JobQueue,
    PriorityStrategy,
    QueuedJob,
    TenantQueue,
    make_strategy,
)


def _job(uid, tenant="t0", size_gb=1.0, **kw):
    return QueuedJob(uid=uid, tenant=tenant, name=uid, size_gb=size_gb, **kw)


class TestAdmission:
    def test_push_accepts_and_stamps_seq(self):
        q = JobQueue(capacity=4)
        d1 = q.push(_job("a"))
        d2 = q.push(_job("b"))
        assert d1.accepted and d2.accepted
        assert d1.job.seq < d2.job.seq
        assert q.depth("t0") == 2

    def test_reject_at_capacity(self):
        q = JobQueue(capacity=2, admission="reject")
        assert q.push(_job("a")).accepted
        assert q.push(_job("b")).accepted
        d = q.push(_job("c"))
        assert not d.accepted
        assert d.reason == AdmissionDecision.QUEUE_FULL
        assert q.depth() == 2

    def test_capacity_is_per_tenant(self):
        q = JobQueue(capacity=1)
        assert q.push(_job("a", tenant="t0")).accepted
        assert q.push(_job("b", tenant="t1")).accepted
        assert not q.push(_job("c", tenant="t0")).accepted
        assert q.depth() == 2

    def test_duplicate_uid_rejected(self):
        q = JobQueue(capacity=4)
        assert q.push(_job("a")).accepted
        d = q.push(_job("a"))
        assert not d.accepted
        assert d.reason == AdmissionDecision.DUPLICATE

    def test_duplicate_of_leased_and_finished_rejected(self):
        q = JobQueue(capacity=4)
        q.push(_job("a"))
        q.pop()
        assert q.push(_job("a")).reason == AdmissionDecision.DUPLICATE
        q.finish("a")
        assert q.push(_job("a")).reason == AdmissionDecision.DUPLICATE

    def test_on_admit_failure_rolls_back_including_shed_victim(self):
        q = JobQueue(
            capacity=1, strategy="smallest_first", admission="shed_lowest"
        )
        q.push(_job("big", size_gb=100.0))

        def boom(_decision):
            raise SCANError("ledger down")

        with pytest.raises(SCANError):
            q.push(_job("small", size_gb=1.0), on_admit=boom)
        # The victim is still queued, the newcomer never became visible.
        assert q.depth() == 1
        assert q.pop().uid == "big"
        assert q.stats()["accepted"] == 1

    def test_blocking_pop_timeout_expires_under_frozen_clock(self):
        # Condition.wait sleeps in real time, so the wait deadline must
        # come from the real clock even when a frozen clock is injected.
        q = JobQueue(clock=lambda: 0.0)
        start = time.monotonic()
        assert q.pop(timeout=0.05) is None
        assert time.monotonic() - start < 5.0

    def test_shed_lowest_evicts_worst(self):
        q = JobQueue(capacity=2, strategy="smallest_first",
                     admission="shed_lowest")
        q.push(_job("big", size_gb=100.0))
        q.push(_job("mid", size_gb=10.0))
        d = q.push(_job("small", size_gb=1.0))
        assert d.accepted
        assert d.shed is not None and d.shed.uid == "big"
        assert [j.uid for j in q.snapshot("t0")] == ["small", "mid"]

    def test_shed_lowest_rejects_worst_newcomer(self):
        q = JobQueue(capacity=2, strategy="smallest_first",
                     admission="shed_lowest")
        q.push(_job("a", size_gb=1.0))
        q.push(_job("b", size_gb=2.0))
        d = q.push(_job("huge", size_gb=100.0))
        assert not d.accepted
        assert d.reason == AdmissionDecision.QUEUE_FULL
        assert q.depth() == 2

    def test_bad_capacity_and_admission_rejected(self):
        with pytest.raises(ConfigurationError):
            JobQueue(capacity=0)
        with pytest.raises(ConfigurationError):
            JobQueue(admission="drop_everything")


class TestPopOrder:
    def test_fifo_pops_in_admission_order(self):
        q = JobQueue(strategy="fifo")
        for uid in ("a", "b", "c"):
            q.push(_job(uid))
        assert [q.pop().uid for _ in range(3)] == ["a", "b", "c"]

    def test_smallest_first_orders_by_size(self):
        q = JobQueue(strategy="smallest_first")
        q.push(_job("big", size_gb=50.0))
        q.push(_job("small", size_gb=1.0))
        q.push(_job("mid", size_gb=10.0))
        assert [q.pop().uid for _ in range(3)] == ["small", "mid", "big"]

    def test_weighted_prefers_heavier_weight(self):
        q = JobQueue(strategy="weighted")
        q.push(_job("batch", weight=1.0))
        q.push(_job("interactive", weight=10.0))
        assert q.pop().uid == "interactive"

    def test_deadline_prefers_earliest_and_parks_deadlineless(self):
        q = JobQueue(strategy="deadline")
        q.push(_job("whenever"))
        q.push(_job("soon", deadline=10.0))
        q.push(_job("later", deadline=99.0))
        assert [q.pop().uid for _ in range(3)] == ["soon", "later", "whenever"]

    def test_global_pop_takes_best_across_tenants(self):
        q = JobQueue(strategy="smallest_first")
        q.push(_job("a-big", tenant="alice", size_gb=10.0))
        q.push(_job("b-small", tenant="bob", size_gb=1.0))
        assert q.pop().uid == "b-small"
        assert q.pop(tenant="alice").uid == "a-big"

    def test_pop_empty_returns_none(self):
        q = JobQueue()
        assert q.pop() is None
        assert q.pop(tenant="ghost") is None

    def test_pop_increments_attempts(self):
        q = JobQueue()
        q.push(_job("a"))
        assert q.pop().attempts == 1

    def test_blocking_pop_wakes_on_push(self):
        q = JobQueue()
        got = []

        def consumer():
            got.append(q.pop(timeout=5.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        q.push(_job("a"))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got[0].uid == "a"

    def test_bounded_pop_times_out(self):
        q = JobQueue()
        assert q.pop(timeout=0.01) is None


class TestHeadIndex:
    """The global pop's lazy ``(head score, tenant)`` index."""

    def test_tenant_pop_exposes_next_head_to_global_pop(self):
        q = JobQueue(strategy="fifo")
        q.push(_job("a"))
        q.push(_job("b"))
        assert q.pop(tenant="t0").uid == "a"
        assert q.pop().uid == "b"
        assert q.pop() is None

    def test_equal_scores_break_to_lowest_tenant_name(self):
        class BySize(PriorityStrategy):
            def score(self, job):
                return (job.size_gb,)

        q = JobQueue(strategy=BySize())
        for tenant in ("carol", "alice", "bob"):
            q.push(_job(f"{tenant}-job", tenant=tenant))
        assert [q.pop().tenant for _ in range(3)] == ["alice", "bob", "carol"]

    def test_tenant_scoped_pops_keep_the_index_bounded(self):
        q = JobQueue(capacity=512, strategy="fifo")
        for i in range(300):
            q.push(_job(f"j{i}"))
        q.push(_job("other", tenant="t1"))
        bound = 2 * len(q.tenants()) + JobQueue.HEAD_INDEX_SLACK
        for i in range(299):
            assert q.pop(tenant="t0").uid == f"j{i}"
            assert len(q._heads) <= bound
        assert [q.pop().uid for _ in range(2)] == ["j299", "other"]

    def test_evict_worst_keeps_the_heap_order(self):
        rng = random.Random(7)
        tq = TenantQueue("t0", capacity=64)
        for i in range(64):
            tq.push((rng.random(), i), _job(f"j{i}", seq=i))
        for _ in range(16):
            worst, _evicted = tq.evict_worst()
            heap = [score for score, _j in tq._heap]
            assert all(
                heap[(i - 1) // 2] < heap[i] for i in range(1, len(heap))
            )
            assert worst > max(heap)
        scores = []
        while len(tq):
            scores.append(tq.peek_score())
            tq.pop()
        assert len(scores) == 48 and scores == sorted(scores)

    def test_concurrent_pushers_and_poppers_lease_each_job_once(self):
        q = JobQueue(capacity=1024, strategy="weighted")
        n_pushers, per_pusher = 4, 150
        total = n_pushers * per_pusher
        popped, lock = [], threading.Lock()

        def pusher(p):
            for i in range(per_pusher):
                q.push(_job(f"p{p}-{i}", tenant=f"t{i % 8}", weight=i % 3))

        def popper(k):
            tenant = f"t{k}" if k % 2 else None
            while True:
                with lock:
                    if len(popped) >= total:
                        return
                job = q.pop(tenant=tenant)
                if job is not None:
                    with lock:
                        popped.append(job.uid)
                elif tenant is not None:
                    tenant = None  # this tenant ran dry: pop globally

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=pusher, args=(p,), daemon=True)
                for p in range(n_pushers)
            ] + [
                threading.Thread(target=popper, args=(k,), daemon=True)
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert sorted(popped) == sorted(
            f"p{p}-{i}" for p in range(n_pushers) for i in range(per_pusher)
        )
        bound = 2 * len(q.tenants()) + JobQueue.HEAD_INDEX_SLACK
        assert len(q._heads) <= bound
        assert q.stats()["leased"] == total


class TestLeaseResolution:
    def test_finish_unknown_uid_raises(self):
        q = JobQueue()
        with pytest.raises(SCANError):
            q.finish("nope")

    def test_requeue_restores_original_priority(self):
        q = JobQueue(strategy="fifo")
        q.push(_job("first"))
        q.push(_job("second"))
        popped = q.pop()
        assert popped.uid == "first"
        q.requeue("first")
        # The requeued job kept its seq, so it still pops before "second".
        assert q.pop().uid == "first"

    def test_stats_conservation_invariant(self):
        q = JobQueue(capacity=8)
        for i in range(5):
            q.push(_job(f"j{i}"))
        q.pop()
        q.pop()
        q.finish("j0")
        stats = q.stats()
        assert stats["accepted"] == (
            stats["queued"] + stats["leased"] + stats["finished"]
        )

    def test_preserve_seq_replay_keeps_counter_ahead(self):
        q = JobQueue()
        q.push(_job("old", seq=41), preserve_seq=True)
        fresh = q.push(_job("new"))
        assert fresh.job.seq > 41


class TestIntrospection:
    def test_snapshot_and_iter_in_pop_order(self):
        q = JobQueue(strategy="smallest_first")
        q.push(_job("b", size_gb=5.0))
        q.push(_job("a", size_gb=1.0))
        q.push(_job("x", tenant="t1", size_gb=3.0))
        assert [j.uid for j in q.snapshot("t0")] == ["a", "b"]
        assert [j.uid for j in q.snapshot("t0", limit=1)] == ["a"]
        assert [j.uid for j in q] == ["a", "b", "x"]
        assert q.depths() == {"t0": 2, "t1": 1}
        assert q.tenants() == ["t0", "t1"]

    def test_leased_listing(self):
        q = JobQueue()
        q.push(_job("a"))
        q.pop()
        assert [j.uid for j in q.leased()] == ["a"]


class TestStrategyRegistry:
    def test_builtins_registered(self):
        assert {"fifo", "smallest_first", "largest_first", "weighted",
                "deadline"} <= set(PRIORITY_STRATEGIES.names())

    def test_make_strategy_passthrough_and_unknown(self):
        strategy = make_strategy("fifo")
        assert make_strategy(strategy) is strategy
        with pytest.raises(ConfigurationError):
            make_strategy("telepathy")

    def test_job_roundtrip(self):
        job = _job("a", size_gb=2.5, weight=3.0, deadline=9.0, seq=7)
        assert QueuedJob.from_dict(job.to_dict()) == job

    def test_malformed_record_raises(self):
        with pytest.raises(SCANError):
            QueuedJob.from_dict({"uid": "a"})
