"""Edge cases of the worker failure machinery: deaths while idle, busy and
booting, the reaper racing the doom timer, and the force-free stall-breaker
with nothing to free."""

from repro.cloud.celar import CelarManager
from repro.cloud.faults import FaultInjector, FaultPlan
from repro.cloud.infrastructure import Infrastructure
from repro.desim.rng import RandomStreams
from repro.scheduler.workers import WorkerPools


def fixed_lifetime_injector(lifetime: float) -> FaultInjector:
    """A crash injector whose every VM lives exactly *lifetime* TU."""
    injector = FaultInjector(FaultPlan(mtbf_tu=50.0), RandomStreams(0))
    injector.draw_lifetime = lambda tier: lifetime  # type: ignore[method-assign]
    return injector


def build_pools(env, lifetime=None, idle_timeout=100.0, private_cores=64):
    infra = Infrastructure(env, private_cores=private_cores, public_cores=1000)
    celar = CelarManager(env, infra, startup_penalty_tu=0.5)
    injector = None if lifetime is None else fixed_lifetime_injector(lifetime)
    pools = WorkerPools(
        env, celar, idle_timeout_tu=idle_timeout, injector=injector
    )
    return infra, pools


class TestDeathWhileIdle:
    def test_idle_victim_leaves_pool_and_frees_cores(self, env):
        infra, pools = build_pools(env, lifetime=2.0)
        failed_calls = []
        pools.on_worker_failed = failed_calls.append
        pools.hire("gatk", 4, "private", stage=0)
        env.run(until=1.0)  # boot done at 0.5; doom armed for 0.5 + 2.0
        assert len(pools.idle_workers) == 1
        assert infra.private.cores_in_use == 4
        env.run(until=3.0)
        assert pools.idle_workers == ()
        assert infra.private.cores_in_use == 0
        assert pools.failed == 1
        # No task was interrupted: the worker died idle.
        assert failed_calls == []


class TestDeathWhileBusy:
    def test_busy_victim_reported_to_scheduler(self, env):
        infra, pools = build_pools(env, lifetime=2.0)
        failed_calls = []
        pools.on_worker_failed = failed_calls.append
        pools.hire("gatk", 4, "private", stage=0)
        env.run(until=1.0)
        worker = pools.acquire("gatk", 4)
        worker.vm.mark_busy()
        env.run(until=3.0)
        assert failed_calls == [worker]
        assert worker not in pools.busy_workers
        assert not worker.alive
        assert infra.private.cores_in_use == 0
        assert pools.failed == 1


class TestDeathWhileBooting:
    def test_doom_mid_repool_notifies_waiters(self, env):
        """A worker whose doom timer fires during a repool reboot must not
        strand the stage that is waiting for it."""
        infra, pools = build_pools(env, lifetime=0.7)
        available_calls = []
        pools.on_available = lambda: available_calls.append(env.now)
        pools.hire("gatk", 8, "private", stage=0)
        env.run(until=0.6)  # boot done at 0.5; doom fires at 0.5 + 0.7 = 1.2
        (worker,) = pools.idle_workers
        pools.repool(worker, 4, stage=3)  # reboot until 0.6 + 0.5 = 1.1...
        env.run(until=1.05)
        assert worker.vm.state.value == "booting"
        env.run(until=2.0)
        # The doom fired while BOOTING: the VM is dead, the worker is in
        # neither pool, its cores are released, and the boot-completion
        # notified on_available so stage 3 can re-decide.
        assert not worker.alive
        assert worker not in pools.idle_workers
        assert worker not in pools.busy_workers
        assert infra.private.cores_in_use == 0
        assert pools.failed == 1
        assert any(t >= 1.1 for t in available_calls)

    def test_booting_counter_pruned_after_death(self, env):
        _infra, pools = build_pools(env, lifetime=0.7)
        pools.hire("gatk", 8, "private", stage=0)
        env.run(until=0.6)
        (worker,) = pools.idle_workers
        pools.repool(worker, 4, stage=3)
        env.run(until=2.0)
        # No zero-count tombstones linger in the booting ledger.
        assert 3 not in pools.booting_for_stage
        assert pools.booting_total() == 0


class TestReaperRacingDoom:
    def test_doom_after_reap_is_a_noop(self, env):
        """The reaper terminates an idle worker before its doom timer
        fires; the late doom must not double-count or double-release."""
        infra, pools = build_pools(env, lifetime=5.0, idle_timeout=1.0)
        pools.hire("gatk", 4, "private", stage=0)
        env.process(pools.start_reaper())
        env.run(until=3.0)  # reaped at ~1.5 (idle since 0.5)
        assert pools.reaped == 1
        assert infra.private.cores_in_use == 0
        env.run(until=10.0)  # doom fires at 5.5 against a dead VM
        assert pools.failed == 0
        assert infra.private.cores_in_use == 0

    def test_reap_skips_already_doomed_worker(self, env):
        """Doom first, reap later: the dead worker is already out of the
        idle pool, so the reaper never sees it."""
        infra, pools = build_pools(env, lifetime=1.0, idle_timeout=3.0)
        pools.hire("gatk", 4, "private", stage=0)
        env.process(pools.start_reaper())
        env.run(until=10.0)  # doom at 1.5 beats the 3.0 idle timeout
        assert pools.failed == 1
        assert pools.reaped == 0
        assert infra.private.cores_in_use == 0


class TestForceFreeEdge:
    def test_force_free_with_zero_idle_workers(self, env):
        """With nothing idle to sacrifice, force_free_private answers from
        tier capacity alone -- no crash, no phantom reaping."""
        infra, pools = build_pools(env, private_cores=16)
        assert pools.force_free("private", 8)  # empty tier: already fits
        assert pools.reaped == 0
        # Fill the tier with a BUSY worker: still nothing idle to free.
        pools.hire("gatk", 16, "private", stage=0)
        env.run(until=1.0)
        worker = pools.acquire("gatk", 16)
        assert worker is not None
        assert not pools.force_free("private", 8)
        assert pools.reaped == 0
        assert worker in pools.busy_workers
        assert infra.private.cores_in_use == 16
