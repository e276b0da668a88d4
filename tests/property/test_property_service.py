"""Property-based tests for the service queue and its persistence replay.

Four contracts, held under arbitrary operation sequences:

1. every priority strategy induces a *strict total order* (scores are
   unique and mutually comparable), and pops respect it;
2. no tenant queue ever exceeds its capacity, under either admission
   policy;
3. push -> persist -> restore -> pop is indistinguishable from
   push -> pop: replaying the ledger reproduces the exact pop order the
   lost process would have produced (leased-but-unfinished jobs
   included, per at-least-once recovery);
4. the head-indexed global pop serves exactly what scanning every
   tenant's head in sorted-name order would, under every operation the
   queue has (fresh and replayed pushes, global and tenant-scoped pops,
   requeue, finish, shed admission), and the head index stays within its
   rebuild bound.
"""

import pytest

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.queue import (
    PRIORITY_STRATEGIES,
    JobQueue,
    QueuedJob,
    make_strategy,
)
from repro.core.ledger import MemoryLedger
from repro.service.store import QueueStore

STRATEGY_NAMES = sorted(PRIORITY_STRATEGIES.names())

job_fields = st.fixed_dictionaries(
    {
        "uid_n": st.integers(min_value=0, max_value=15),
        "tenant": st.sampled_from(["t0", "t1", "t2"]),
        "size_gb": st.floats(
            min_value=0.1, max_value=100.0,
            allow_nan=False, allow_infinity=False,
        ),
        "weight": st.sampled_from([1.0, 2.0, 5.0, 10.0]),
        "deadline": st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=1e4)
        ),
    }
)


def _job(fields):
    return QueuedJob(
        uid=f"u{fields['uid_n']}",
        tenant=fields["tenant"],
        name=f"job-{fields['uid_n']}",
        size_gb=fields["size_gb"],
        weight=fields["weight"],
        deadline=fields["deadline"],
    )


#: An op is a push (job fields) or a pop (None).
ops_strategy = st.lists(
    st.one_of(job_fields, st.none()), min_size=1, max_size=40
)


@given(
    jobs=st.lists(job_fields, min_size=2, max_size=30),
    strategy_name=st.sampled_from(STRATEGY_NAMES),
)
@settings(max_examples=50, deadline=None)
def test_every_strategy_is_a_strict_total_order(jobs, strategy_name):
    strategy = make_strategy(strategy_name)
    scored = [
        strategy.score(replace(_job(fields), seq=i))
        for i, fields in enumerate(jobs)
    ]
    # Unique (the seq tie-break guarantees strictness) ...
    assert len(set(scored)) == len(scored)
    # ... and mutually comparable: sorting must not raise TypeError.
    ordered = sorted(scored)
    assert len(ordered) == len(scored)


@given(
    jobs=st.lists(job_fields, min_size=1, max_size=30),
    strategy_name=st.sampled_from(STRATEGY_NAMES),
)
@settings(max_examples=50, deadline=None)
def test_pop_sequence_respects_strategy_order(jobs, strategy_name):
    queue = JobQueue(capacity=64, strategy=strategy_name)
    for fields in jobs:
        queue.push(_job(fields))
    strategy = queue.strategy
    popped = []
    while True:
        job = queue.pop()
        if job is None:
            break
        popped.append(job)
    scores = [strategy.score(replace(j, attempts=0)) for j in popped]
    assert scores == sorted(scores)


@given(
    jobs=st.lists(job_fields, min_size=1, max_size=60),
    capacity=st.integers(min_value=1, max_value=5),
    admission=st.sampled_from(["reject", "shed_lowest"]),
    strategy_name=st.sampled_from(STRATEGY_NAMES),
)
@settings(max_examples=50, deadline=None)
def test_capacity_is_never_exceeded(jobs, capacity, admission, strategy_name):
    queue = JobQueue(
        capacity=capacity, strategy=strategy_name, admission=admission
    )
    for fields in jobs:
        queue.push(_job(fields))
        assert all(d <= capacity for d in queue.depths().values())
    stats = queue.stats()
    # Conservation: every accepted job is queued, leased, finished, or was
    # shed by a later admission.
    assert stats["accepted"] == (
        stats["queued"] + stats["leased"] + stats["finished"] + stats["shed"]
    )


@given(
    ops=ops_strategy,
    strategy_name=st.sampled_from(STRATEGY_NAMES),
)
@settings(max_examples=50, deadline=None)
def test_persist_restore_pop_equals_push_pop(ops, strategy_name):
    """The mula recreate-from-storage contract, as a property."""
    queue = JobQueue(capacity=8, strategy=strategy_name)
    store = QueueStore(MemoryLedger())
    for op in ops:
        if op is None:
            job = queue.pop()
            if job is not None:
                store.record_pop(job)
        else:
            decision = queue.push(_job(op))
            if decision.accepted:
                if decision.shed is not None:
                    store.record_shed(decision.shed)
                store.record_push(decision.job)

    # What the live process would still run: queued jobs plus unresolved
    # leases, in strategy order (leases re-queue at original priority).
    strategy = queue.strategy
    live = list(queue) + [replace(j, attempts=0) for j in queue.leased()]
    expected = [job.uid for job in sorted(live, key=strategy.score)]

    restored = JobQueue(capacity=8, strategy=strategy_name)
    for job in store.load().queued:
        assert restored.push(job, preserve_seq=True).accepted
    popped = []
    while True:
        job = restored.pop()
        if job is None:
            break
        popped.append(job.uid)
    assert popped == expected


# -- model-based: the head index against a reference scan ---------------------
model_tenants = st.sampled_from(["t0", "t1", "t2", "t3"])
model_job = st.fixed_dictionaries(
    {
        "uid_n": st.integers(min_value=0, max_value=40),
        "tenant": model_tenants,
        "size_gb": st.sampled_from([1.0, 2.5, 8.0, 40.0]),
        "weight": st.sampled_from([1.0, 2.0, 10.0]),
        "deadline": st.one_of(st.none(), st.sampled_from([5.0, 50.0])),
    }
)
model_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), model_job),
        st.tuples(st.just("replay"), model_job, st.integers(1, 400)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("pop"), model_tenants),
        st.tuples(st.just("finish"), st.integers(0, 63)),
        st.tuples(st.just("requeue"), st.integers(0, 63)),
    ),
    min_size=1,
    max_size=80,
)


def _reference_pop(strategy, queued, tenant=None):
    """The pre-index global pop: scan sorted tenants' heads, strict ``<``
    so equal scores break to the lowest tenant name."""
    best = best_score = None
    names = sorted({job.tenant for job in queued.values()})
    for name in names if tenant is None else [tenant]:
        jobs = [job for job in queued.values() if job.tenant == name]
        if not jobs:
            continue
        head = min(jobs, key=strategy.score)
        score = strategy.score(head)
        if best_score is None or score < best_score:
            best, best_score = head, score
    return best


@pytest.mark.parametrize("strategy_name", STRATEGY_NAMES)
@given(ops=model_ops, capacity=st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_indexed_pop_matches_sorted_head_scan(strategy_name, ops, capacity):
    queue = JobQueue(
        capacity=capacity, strategy=strategy_name, admission="shed_lowest"
    )
    strategy = queue.strategy
    queued = {}  # uid -> job as queued (the model)
    leased = []
    used_seqs = set()
    for op in ops:
        kind = op[0]
        if kind in ("push", "replay"):
            job = _job(op[1])
            if kind == "replay":
                # A replayed record keeps its persisted seq; seqs are
                # unique across the ledger, so skip one already issued.
                if op[2] in used_seqs:
                    continue
                job = replace(job, seq=op[2])
            tenant_jobs = [
                j for j in queued.values() if j.tenant == job.tenant
            ]
            decision = queue.push(job, preserve_seq=kind == "replay")
            if decision.accepted:
                used_seqs.add(decision.job.seq)
                if decision.shed is not None:
                    # The victim is the tenant's worst queued job.
                    worst = max(tenant_jobs, key=strategy.score)
                    assert decision.shed.uid == worst.uid
                    del queued[decision.shed.uid]
                queued[decision.job.uid] = decision.job
                if kind == "push":
                    assert queue.depth(job.tenant) <= max(
                        capacity, len(tenant_jobs)
                    )
        elif kind == "pop":
            expected = _reference_pop(strategy, queued, op[1])
            popped = queue.pop(tenant=op[1])
            if expected is None:
                assert popped is None
                continue
            assert popped is not None and popped.uid == expected.uid
            assert popped.attempts == expected.attempts + 1
            del queued[popped.uid]
            leased.append(popped)
        elif leased:
            job = leased.pop(op[1] % len(leased))
            if kind == "finish":
                queue.finish(job.uid)
            else:
                queue.requeue(job.uid)
                queued[job.uid] = job
        assert len(queue._heads) <= (
            2 * len(queue.tenants()) + JobQueue.HEAD_INDEX_SLACK
        )
        assert queue.depths() == {
            name: sum(1 for j in queued.values() if j.tenant == name)
            for name in queue.tenants()
        }
    # Drain globally: the rest comes out in reference order too.
    while queued:
        expected = _reference_pop(strategy, queued)
        assert queue.pop().uid == expected.uid
        del queued[expected.uid]
    assert queue.pop() is None
