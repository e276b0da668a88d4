"""Byte-identity of a service ledger: pop order, stamps and encoding.

A scripted service run over 64 tenants -- the ``weighted`` strategy,
``shed_lowest`` admission at a small capacity, a deterministic injected
clock and a JSONL store -- first fills a backlog, then interleaves
submits, global pops, tenant-scoped pops, finishes and requeues.  The
ledger it writes records every admission (with its ``seq``,
``submitted_at`` and ``attempts`` stamps), every shed victim and every
pop in the order the queue served it, so ``fixtures/ledger_golden.jsonl``
pins the queue's pop order, its stamping and the ledger's encoding
together.

Regenerate (only when an *intentional* behaviour change lands)::

    PYTHONPATH=src python -m tests.service.test_golden_ledger
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from repro.service import ServiceConfig, ServicePlane
from repro.service.store import JsonlQueueStore

FIXTURE = Path(__file__).parent / "fixtures" / "ledger_golden.jsonl"

SEED = 22
TENANTS = 64
CAPACITY = 4
BACKLOG = 192
OPS = 640


def _generate(path: str) -> None:
    """Run the scripted workload, writing its ledger to *path*."""
    ticks = itertools.count()
    rng = random.Random(SEED)
    plane = ServicePlane(
        config=ServiceConfig(
            priority_strategy="weighted",
            admission="shed_lowest",
            tenant_capacity=CAPACITY,
        ),
        store=JsonlQueueStore(path),
        clock=lambda: next(ticks) * 0.25,
    )
    tenants = [f"tenant-{i:02d}" for i in range(TENANTS)]
    leased = []

    def submit(n: int) -> None:
        plane.submit(
            rng.choice(tenants),
            f"job-{n}",
            round(rng.uniform(1.0, 200.0), 3),
            weight=rng.choice((1.0, 1.0, 2.0, 5.0, 10.0)),
        )

    def lease(job) -> None:
        if job is not None:
            leased.append(job)

    for n in range(BACKLOG):
        submit(n)
    for n in range(BACKLOG, BACKLOG + OPS):
        op = rng.random()
        if op < 0.35:
            submit(n)
        elif op < 0.55:
            lease(plane.pop())
        elif op < 0.70:
            lease(plane.pop(tenant=rng.choice(tenants)))
        elif op < 0.90 and leased:
            job = leased.pop(rng.randrange(len(leased)))
            plane.finish(
                job.uid, "completed" if rng.random() < 0.9 else "failed"
            )
        elif leased:
            # The service's retry path, as ServicePlane.reconcile writes it.
            job = leased.pop(rng.randrange(len(leased)))
            plane.store.record_finish(job, "requeued")
            plane.queue.requeue(
                job.uid, on_admit=lambda d: plane.store.record_push(d.job)
            )
    plane.close()


def test_service_ledger_byte_identical(tmp_path):
    path = tmp_path / "ledger.jsonl"
    _generate(str(path))
    assert path.read_bytes() == FIXTURE.read_bytes()


if __name__ == "__main__":  # regeneration entry point
    _generate(str(FIXTURE.with_suffix(".tmp")))
    FIXTURE.with_suffix(".tmp").replace(FIXTURE)
    print(f"regenerated {FIXTURE}")
