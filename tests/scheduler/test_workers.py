"""Tests for worker pools: matching, hiring, re-pooling, reaping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.celar import CelarManager
from repro.cloud.infrastructure import Infrastructure
from repro.core.errors import SchedulingError
from repro.desim.engine import Environment
from repro.scheduler.workers import Worker, WorkerPools


@pytest.fixture
def setup(env):
    infra = Infrastructure(env, private_cores=64, public_cores=1000)
    celar = CelarManager(env, infra, startup_penalty_tu=0.5)
    pools = WorkerPools(env, celar, idle_timeout_tu=2.0)
    return env, infra, celar, pools


def ready_worker(env, pools, cores=4, tier="private", cls="gatk"):
    """Hire and boot a worker to the idle pool."""
    pools.hire(cls, cores, tier, stage=0)
    env.run(until=env.now + 0.6)
    (worker,) = [w for w in pools.idle_workers if w.cores == cores or True][-1:]
    return worker


class TestHire:
    def test_hire_claims_cores_synchronously(self, setup):
        env, infra, _celar, pools = setup
        pools.hire("gatk", 8, "private", stage=0)
        assert infra.private.cores_in_use == 8
        assert pools.booting_for_stage[0] == 1
        assert pools.idle_workers == ()

    def test_worker_idle_after_boot(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 8, "private", stage=0)
        env.run(until=1.0)
        assert pools.booting_for_stage[0] == 0
        assert len(pools.idle_workers) == 1
        assert pools.hires["private"] == 1

    def test_on_available_fires_when_ready(self, setup):
        env, _infra, _celar, pools = setup
        calls = []
        pools.on_available = lambda: calls.append(env.now)
        pools.hire("gatk", 4, "private", stage=2)
        env.run(until=1.0)
        assert calls == [0.5]


class TestAcquire:
    def test_exact_match_taken(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 4, "private", stage=0)
        env.run(until=1.0)
        worker = pools.acquire("gatk", 4)
        assert worker is not None
        assert worker.cores == 4
        assert worker in pools.busy_workers

    def test_matching_is_exact_shape(self, setup):
        """Workers belong to vCPU-count pools: an 8-core request must not
        take a 16-core worker (that worker would need a re-pool restart)."""
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 16, "private", stage=0)
        pools.hire("gatk", 8, "private", stage=0)
        env.run(until=1.0)
        worker = pools.acquire("gatk", 8)
        assert worker.cores == 8
        assert pools.acquire("gatk", 4) is None  # no 4-core pool member

    def test_too_small_workers_skipped(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 2, "private", stage=0)
        env.run(until=1.0)
        assert pools.acquire("gatk", 4) is None

    def test_class_must_match(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("bwa", 8, "private", stage=0)
        env.run(until=1.0)
        assert pools.acquire("gatk", 4) is None

    def test_release_returns_to_idle(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 4, "private", stage=0)
        env.run(until=1.0)
        worker = pools.acquire("gatk", 4)
        worker.vm.mark_busy()
        pools.release(worker)
        assert worker in pools.idle_workers
        assert worker.idle_since == env.now

    def test_release_of_non_busy_rejected(self, setup):
        env, _infra, celar, pools = setup
        vm = celar.deploy(4, "private")
        stray = Worker(vm, "gatk")
        with pytest.raises(SchedulingError):
            pools.release(stray)


class TestRepool:
    def test_repool_changes_shape_with_penalty(self, setup):
        env, infra, _celar, pools = setup
        pools.hire("gatk", 16, "private", stage=0)
        env.run(until=1.0)
        candidate = pools.repool_candidate("gatk", 4)
        assert candidate is not None
        pools.repool(candidate, 4, stage=3)
        assert infra.private.cores_in_use == 4  # shrunk immediately
        assert pools.booting_for_stage[3] == 1
        env.run(until=2.0)
        assert candidate.cores == 4
        assert pools.repools == 1
        assert candidate in pools.idle_workers

    def test_candidate_prefers_shrink_over_grow(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 16, "private", stage=0)
        pools.hire("gatk", 2, "private", stage=0)
        env.run(until=1.0)
        candidate = pools.repool_candidate("gatk", 8)
        assert candidate.cores == 16  # shrink 16->8 beats grow 2->8

    def test_grow_requires_tier_capacity(self, env):
        infra = Infrastructure(env, private_cores=4, public_cores=4)
        celar = CelarManager(env, infra)
        pools = WorkerPools(env, celar)
        pools.hire("gatk", 4, "private", stage=0)
        env.run(until=1.0)
        # Growing 4 -> 8 needs 4 more private cores; tier is full.
        assert pools.repool_candidate("gatk", 8) is None

    def test_grow_skips_full_tier_within_a_shape(self, env):
        infra = Infrastructure(env, private_cores=4, public_cores=8)
        celar = CelarManager(env, infra)
        pools = WorkerPools(env, celar)
        on_private = pools.hire("gatk", 4, "private", stage=0)
        on_public = pools.hire("gatk", 4, "public", stage=0)
        env.run(until=1.0)
        assert pools.idle_workers == (on_private, on_public)
        # Growing 4 -> 8 fits only the public worker's tier.
        assert pools.repool_candidate("gatk", 8) is on_public

    def test_repool_requires_idle(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 4, "private", stage=0)
        env.run(until=1.0)
        worker = pools.acquire("gatk", 4)
        with pytest.raises(SchedulingError):
            pools.repool(worker, 8, stage=0)


class TestWaitEstimation:
    def test_no_busy_workers_infinite(self, setup):
        _env, _infra, _celar, pools = setup
        assert pools.estimate_wait("gatk", 4, penalty_tu=0.5) == float("inf")

    def test_matching_busy_worker_remaining_time(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 4, "private", stage=0)
        env.run(until=1.0)
        worker = pools.acquire("gatk", 4)
        pools.start(worker, env.now + 3.0)
        assert pools.estimate_wait("gatk", 4, 0.5) == 3.0

    def test_mismatched_worker_adds_penalty(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 2, "private", stage=0)
        env.run(until=1.0)
        worker = pools.acquire("gatk", 2)
        pools.start(worker, env.now + 3.0)
        # Needs 8 threads: the 2-core worker must be reshaped after freeing.
        assert pools.estimate_wait("gatk", 8, 0.5) == 3.5

    def test_restarts_keep_heap_bounded(self, setup):
        env, _infra, _celar, pools = setup
        for _ in range(2):
            pools.hire("gatk", 4, "private", stage=0)
        env.run(until=1.0)
        steady = pools.acquire("gatk", 4)
        churn = pools.acquire("gatk", 4)
        # Busy but not started: nothing to wait for yet.
        assert pools.estimate_wait("gatk", 4, 0.5) == float("inf")
        pools.start(steady, env.now + 5.0)
        # Re-starting one worker leaves stale entries behind; the heap
        # is compacted, never the steady worker's live entry.
        for k in range(200):
            pools.start(churn, env.now + 10.0 + k)
            assert len(pools._busy_heaps[("gatk", 4)]) <= 2 * 2 + 33
        assert pools.estimate_wait("gatk", 4, 0.5) == 5.0
        assert pools.estimate_wait("gatk", 8, 0.5) == 5.5

    def test_reshaped_worker_leaves_its_old_shape(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 4, "private", stage=0)
        env.run(until=1.0)
        worker = pools.acquire("gatk", 4)
        pools.start(worker, 4.0)
        assert pools.estimate_wait("gatk", 4, 0.5) == 3.0
        worker.vm.mark_busy()
        pools.release(worker)
        pools.repool(worker, 8, stage=0)
        env.run(until=2.0)
        assert pools.acquire("gatk", 8) is worker
        # Same finish time as its 4-core entry, which must stay dead.
        pools.start(worker, 4.0)
        assert pools.estimate_wait("gatk", 8, 0.5) == 2.0
        assert pools.estimate_wait("gatk", 4, 0.5) == 2.5

    def test_negative_penalty_rejected(self, setup):
        _env, _infra, _celar, pools = setup
        with pytest.raises(SchedulingError):
            pools.estimate_wait("gatk", 4, penalty_tu=-0.5)


class TestReaper:
    def test_idle_workers_reaped_after_timeout(self, setup):
        env, infra, _celar, pools = setup
        pools.hire("gatk", 4, "private", stage=0)
        env.process(pools.start_reaper())
        env.run(until=5.0)
        assert pools.reaped == 1
        assert infra.private.cores_in_use == 0

    def test_busy_workers_never_reaped(self, setup):
        env, _infra, _celar, pools = setup
        pools.hire("gatk", 4, "private", stage=0)
        env.run(until=1.0)
        worker = pools.acquire("gatk", 4)
        env.process(pools.start_reaper())
        env.run(until=10.0)
        assert pools.reaped == 0
        assert worker in pools.busy_workers

    def test_force_free_private(self, env):
        infra = Infrastructure(env, private_cores=16, public_cores=10)
        celar = CelarManager(env, infra)
        pools = WorkerPools(env, celar)
        pools.hire("gatk", 16, "private", stage=0)
        env.run(until=1.0)
        assert not infra.private.can_allocate(8)
        assert pools.force_free("private", 8)
        assert infra.private.can_allocate(8)
        assert pools.reaped == 1

    def test_double_reaper_rejected(self, setup):
        env, _infra, _celar, pools = setup
        env.process(pools.start_reaper())
        env.run(until=0.1)
        with pytest.raises(Exception):
            env.run(until=env.process(pools.start_reaper()))


_classes = st.sampled_from(("gatk", "bwa"))
_cores = st.sampled_from((2, 4, 8))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("hire"), _classes, _cores,
                  st.sampled_from(("private", "public"))),
        st.tuples(st.just("acquire"), _classes, _cores),
        st.tuples(st.just("release"), st.integers(0, 50)),
        # Finish times include ties and times already past.
        st.tuples(st.just("start"), st.integers(0, 50),
                  st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.5))),
        st.tuples(st.just("advance"), st.sampled_from((0.1, 0.6, 1.5))),
        st.tuples(st.just("reap")),
        st.tuples(st.just("repool"), _classes, _cores),
        st.tuples(st.just("force_free"), st.sampled_from(("private", "public")),
                  _cores),
    ),
    min_size=20,
    max_size=80,
)


def _reference_estimate_wait(busy, now, worker_class, cores, penalty_tu):
    """``WorkerPools.estimate_wait`` as a scan over a plain busy list."""
    best = float("inf")
    for worker in busy:
        if worker.busy_until is None:
            continue
        remaining = max(worker.busy_until - now, 0.0)
        if worker.worker_class != worker_class or worker.cores != cores:
            remaining += penalty_tu
        best = min(best, remaining)
    return best


def _reference_repool_candidate(idle, worker_class, cores):
    """``WorkerPools.repool_candidate`` over a plain idle list."""
    candidates = [w for w in idle if w.worker_class == worker_class]
    candidates.sort(key=lambda w: (w.cores < cores, abs(w.cores - cores)))
    for worker in candidates:
        if worker.cores == cores:
            return worker
        delta = cores - worker.cores
        if delta < 0:
            return worker
        tier = worker.vm.infrastructure.tier(worker.tier)
        if tier.can_allocate(delta):
            return worker
    return None


class TestIdleOrderMatchesListReference:
    """The shape-indexed idle pool against the plain idle list it replaced:
    the same worker is picked, and the idle order stays the same, under
    any interleaving of hires, boots, acquires, task starts, releases,
    reaps, repools and forced frees.  The heap-indexed wait estimate
    equals a scan over the busy list after every operation."""

    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_random_operation_sequences(self, ops):
        env = Environment()
        infra = Infrastructure(env, private_cores=16, public_cores=1000)
        celar = CelarManager(env, infra, startup_penalty_tu=0.5)
        pools = WorkerPools(env, celar, idle_timeout_tu=1.0)
        ref: list = []  # the idle list, maintained the pre-index way
        pending: list = []  # workers about to turn idle
        busy: list = []

        def on_available():
            # One worker turns idle per notification at most.
            idle = pools.idle_workers
            for worker in list(pending):
                if worker in idle:
                    pending.remove(worker)
                    ref.append(worker)

        pools.on_available = on_available
        for op in ops:
            kind = op[0]
            if kind == "hire":
                _, cls, cores, tier = op
                if infra.tier(tier).can_allocate(cores):
                    pending.append(pools.hire(cls, cores, tier, stage=0))
            elif kind == "acquire":
                _, cls, cores = op
                expected = next(
                    (w for w in ref
                     if w.worker_class == cls and w.cores == cores),
                    None,
                )
                assert pools.acquire(cls, cores) is expected
                if expected is not None:
                    ref.remove(expected)
                    expected.vm.mark_busy()
                    busy.append(expected)
            elif kind == "start" and busy:
                _, index, offset = op
                worker = busy[index % len(busy)]
                pools.start(worker, env.now + offset)
                heap = pools._busy_heaps[(worker.worker_class, worker.cores)]
                assert len(heap) <= 2 * len(busy) + 33
            elif kind == "release" and busy:
                worker = busy.pop(op[1] % len(busy))
                pending.append(worker)
                pools.release(worker)
            elif kind == "advance":
                env.run(until=env.now + op[1])
            elif kind == "reap":
                now = env.now
                ref[:] = [
                    w for w in ref
                    if not (w.idle_since is not None
                            and now - w.idle_since >= pools.idle_timeout_tu)
                ]
                pools.reap(now)
            elif kind == "repool":
                _, cls, cores = op
                candidate = pools.repool_candidate(cls, cores)
                assert candidate is _reference_repool_candidate(
                    ref, cls, cores
                )
                if candidate is not None:
                    pools.repool(candidate, cores, stage=0)
                    ref.remove(candidate)
                    pending.append(candidate)
            elif kind == "force_free":
                _, tier, cores = op
                victims = sorted(
                    (w for w in ref if w.tier == tier), key=lambda w: -w.cores
                )
                pools.force_free(tier, cores)
                freed = [w for w in victims if not w.alive]
                assert freed == victims[: len(freed)]
                ref[:] = [w for w in ref if w.alive]
            assert pools.idle_workers == tuple(ref)
            for cls in ("gatk", "bwa"):
                # repool_candidate's sorted core counts mirror the shapes.
                assert pools._idle_cores.get(cls, []) == sorted(
                    c for k, c in pools._idle_by_shape if k == cls
                )
                for cores in (2, 4, 8):
                    for penalty in (0.0, 0.5):
                        assert pools.estimate_wait(
                            cls, cores, penalty
                        ) == _reference_estimate_wait(
                            busy, env.now, cls, cores, penalty
                        )
