"""A finished session frees itself: the teardown that ends ``run()``.

Once its result is collected, ``SimulationSession.run`` closes the
environment (every process still in flight is abandoned where it waits)
and unhooks the scheduler's callbacks.  The platform it built then holds
no reference cycle, so it dies by reference counting alone as soon as the
caller drops the session; a sweep process's memory stays flat without a
collector pass.  The tests run with the cyclic collector disabled, so
anything a cycle kept alive shows up as a live weak reference.
"""

import gc
import tracemalloc
import weakref
from collections import Counter

import pytest

import repro.sim.session as session_module
from repro.core.bus import TaskDeadLettered
from repro.core.config import TierConfig
from repro.core.presets import make_preset
from repro.desim.engine import Environment
from repro.desim.rng import RandomStreams
from repro.sim.builder import PlatformBuilder
from repro.sim.session import SimulationSession, run_repetitions

#: The four-tier stack: reserved, spot (evictions), serverless (per-call
#: cap and duration limit) and on-demand, small enough that work spills
#: into every tier.
_FOUR_TIERS = (
    TierConfig(
        name="private", backend="reserved",
        capacity_cores=192, core_cost_per_tu=5.0,
    ),
    TierConfig(
        name="spot", backend="spot",
        capacity_cores=96, core_cost_per_tu=10.0,
        eviction_mtbf_tu=60.0, reference_cost_per_tu=50.0,
    ),
    TierConfig(
        name="faas", backend="serverless",
        capacity_cores=16, core_cost_per_tu=35.0,
        invocation_cost=2.0, cold_start_tu=0.25,
        max_cores_per_allocation=8, max_duration_tu=30.0,
    ),
    TierConfig(
        name="public", backend="on_demand",
        capacity_cores=1_000_000, core_cost_per_tu=50.0,
    ),
)

CASES = {
    "busy": make_preset("busy").with_overrides(
        simulation={"duration": 300.0}
    ),
    "fanout_adaptive": make_preset("fanout").with_overrides(
        simulation={"duration": 300.0}, knowledge={"provider": "adaptive"}
    ),
    "chaos": make_preset("chaos").with_overrides(
        simulation={"duration": 300.0}
    ),
    "tiers_chaos": make_preset("chaos").with_overrides(
        simulation={"duration": 300.0},
        cloud={"tiers": _FOUR_TIERS},
        resilience={"max_attempts": 5},
        workload={"mean_interarrival": 3.0},
    ),
    "telemetry": make_preset("chaos").with_overrides(
        simulation={"duration": 200.0}, telemetry={"enabled": True}
    ),
}


@pytest.fixture
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _watch(session):
    """Weak references to the live parts of *session*'s last run."""
    scheduler = session.scheduler
    pools = scheduler.pools
    workers = [*pools.idle_workers, *pools.busy_workers]
    assert workers and scheduler.submitted_jobs
    refs = {
        "env": weakref.ref(scheduler.env),
        "scheduler": weakref.ref(scheduler),
        "pools": weakref.ref(pools),
        "job": weakref.ref(scheduler.submitted_jobs[-1]),
        "worker": weakref.ref(workers[0]),
    }
    for name in ("plane", "refitter", "telemetry"):
        part = getattr(session, name)
        if part is not None:
            refs[name] = weakref.ref(part)
    return refs


@pytest.mark.parametrize("case", sorted(CASES))
def test_dropped_session_dies_without_the_collector(case, no_cycle_collector):
    session = SimulationSession(CASES[case])
    result = session.run(seed=3)
    assert result.completed_runs > 0
    refs = _watch(session)
    if case == "fanout_adaptive":
        assert {"plane", "refitter"} <= set(refs)
    if case == "telemetry":
        assert "telemetry" in refs
    del session, result
    alive = sorted(name for name, ref in refs.items() if ref() is not None)
    assert alive == []


def test_teardown_leaves_the_books_as_the_run_left_them(monkeypatch):
    """Closing in-flight processes runs no bookkeeping of theirs."""
    snapshots = []

    def books(scheduler):
        pools = scheduler.pools
        return (
            {w.uid for w in scheduler._executing},
            Counter(pools.booting_for_stage),
            sorted(w.uid for w in pools.busy_workers),
            sorted(w.uid for w in pools.idle_workers),
            scheduler.task_retries,
            len(scheduler.dead_letters),
        )

    class SnapshotEnvironment(Environment):
        def close(self):
            snapshots.append(books(session.scheduler))
            super().close()

    monkeypatch.setattr(session_module, "Environment", SnapshotEnvironment)
    session = SimulationSession(CASES["tiers_chaos"])
    session.run(seed=3)
    (before,) = snapshots
    executing, booting = before[0], before[1]
    # Work was in flight when the run ended, so the teardown had
    # processes to close.
    assert executing and sum(booting.values()) > 0
    assert books(session.scheduler) == before
    # The callbacks back into the scheduler are gone; the bus stays wired.
    pools = session.scheduler.pools
    assert pools.on_available is None and pools.on_worker_failed is None
    assert session.scheduler.speculation.on_launch is None
    assert TaskDeadLettered in session.scheduler.bus


def test_repetitions_do_not_accumulate(no_cycle_collector):
    cfg = CASES["busy"]
    run_repetitions(cfg, seeds=[1])  # import-time and first-use caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_repetitions(cfg, seeds=[1])
        after_one, peak_one = tracemalloc.get_traced_memory()
        results = run_repetitions(cfg, seeds=list(range(1, 9)))
        after_eight = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(results) == 8
    one_session = peak_one - start
    assert after_eight - after_one < one_session


def test_closed_bare_build_dies_without_the_collector(no_cycle_collector):
    """An assembly that no session ran dies once closed and dropped."""
    cfg = CASES["busy"]
    closed = PlatformBuilder(cfg).build(Environment(), RandomStreams(3))
    closed.close()
    refs = {
        "env": weakref.ref(closed.env),
        "scheduler": weakref.ref(closed.scheduler),
        "pools": weakref.ref(closed.scheduler.pools),
    }
    del closed
    assert sorted(name for name, ref in refs.items() if ref() is not None) == []
    # The control: without close() the scheduler <-> pools callbacks
    # keep the assembly alive for the collector.
    kept = PlatformBuilder(cfg).build(Environment(), RandomStreams(3))
    scheduler = weakref.ref(kept.scheduler)
    del kept
    assert scheduler() is not None
