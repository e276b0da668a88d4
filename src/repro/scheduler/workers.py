"""SCAN Workers and worker pools.

"SCAN Workers are responsible for executing tasks as instructed by the
scheduler.  The workers are very simple entities: they are assigned SCAN
tasks, which they run until completion, and provide feedback concerning
their resource utilization to the scheduler.  Each worker has a software
stack suitable for a particular application and a certain hardware
configuration" (paper Section III-A.3).

A :class:`Worker` wraps a CELAR-managed VM; :class:`WorkerPools` tracks the
idle/busy/booting population, matches tasks to workers (smallest adequate
instance first), re-pools idle workers to new vCPU shapes (paying the
restart penalty), and reaps workers that have idled past their timeout.
Chaos (VM crashes, boot failures) arrives through an optional
:class:`~repro.cloud.faults.FaultInjector`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Optional

from repro.cloud.celar import CelarManager
from repro.cloud.faults import FaultInjector
from repro.cloud.vm import VirtualMachine, VMState
from repro.core.errors import SchedulingError
from repro.desim.engine import Environment

__all__ = ["Worker", "WorkerPools"]

_worker_ids = itertools.count(1)


class Worker:
    """A VM labelled with an application software stack."""

    def __init__(self, vm: VirtualMachine, worker_class: str) -> None:
        self.uid = next(_worker_ids)
        self.vm = vm
        self.worker_class = worker_class
        self.idle_since: Optional[float] = None
        #: Whether a failure doom-timer is already armed for this worker.
        self.doom_armed = False
        #: Whether a spot-eviction timer is already armed for this worker.
        self.eviction_armed = False
        #: Set when the provider reclaimed this worker's spot capacity;
        #: the scheduler reports the failure as an eviction.
        self.evicted = False
        #: Predicted completion time of the current task (for wait
        #: estimation); None while idle.
        self.busy_until: Optional[float] = None
        self.tasks_executed = 0

    @property
    def cores(self) -> int:
        return self.vm.cores

    @property
    def tier(self) -> str:
        return self.vm.tier

    @property
    def alive(self) -> bool:
        return self.vm.alive

    def __repr__(self) -> str:
        return (
            f"<Worker {self.uid} {self.worker_class} {self.cores}c "
            f"{self.tier} {self.vm.state.value}>"
        )


class WorkerPools:
    """The scheduler's live worker population."""

    def __init__(
        self,
        env: Environment,
        celar: CelarManager,
        idle_timeout_tu: float = 2.0,
        reap_interval_tu: float = 1.0,
        injector: Optional[FaultInjector] = None,
        tracer=None,
    ) -> None:
        if idle_timeout_tu < 0 or reap_interval_tu <= 0:
            raise SchedulingError("invalid reaper configuration")
        self.env = env
        self.celar = celar
        self.idle_timeout_tu = idle_timeout_tu
        self.reap_interval_tu = reap_interval_tu
        self.injector = injector
        #: Optional telemetry SpanTracer; boot/resize intervals appear on
        #: each worker's trace lane under the "cloud" category.  Passive:
        #: no clock writes, no RNG draws.
        self.tracer = tracer
        if tracer is not None:
            from repro.telemetry.tracing import lane_for_worker

            self._lane_for_worker = lane_for_worker
        #: Idle workers in the order they became idle (a dict as an
        #: ordered set), and the same workers per (class, cores) shape in
        #: the same order, so :meth:`acquire` is one lookup.
        self._idle: dict[Worker, None] = {}
        self._idle_by_shape: dict[tuple[str, int], dict[Worker, None]] = {}
        self._busy: set[Worker] = set()
        #: Workers currently booting/resizing, per stage that requested
        #: them.  A Counter so absent stages read 0; zero-count entries are
        #: pruned as boots finish (they used to linger forever).
        self.booting_for_stage: Counter[int] = Counter()
        #: Invoked (with no args) whenever a worker becomes available.
        self.on_available: Optional[Callable[[], None]] = None
        #: Invoked with the victim when a BUSY worker's VM fails; the
        #: scheduler uses it to interrupt and retry the running task.
        self.on_worker_failed: Optional[Callable[[Worker], None]] = None
        self.hires = Counter(
            {name: 0 for name in celar.infrastructure.tier_names()}
        )
        self.repools = 0
        self.reaped = 0
        self.failed = 0
        self.boot_failures = 0
        self.evicted = 0
        self._reaper_started = False

    @property
    def _crashes_enabled(self) -> bool:
        return self.injector is not None and self.injector.crashes_enabled

    # -- population views ------------------------------------------------------
    @property
    def idle_workers(self) -> tuple[Worker, ...]:
        return tuple(self._idle)

    @property
    def busy_workers(self) -> frozenset[Worker]:
        return frozenset(self._busy)

    def _idle_add(self, worker: Worker) -> None:
        self._idle[worker] = None
        shape = (worker.worker_class, worker.cores)
        pool = self._idle_by_shape.get(shape)
        if pool is None:
            pool = self._idle_by_shape[shape] = {}
        pool[worker] = None

    def _idle_remove(self, worker: Worker) -> None:
        # A worker's shape is fixed while it idles (only repool reshapes,
        # and it removes the worker first).
        del self._idle[worker]
        shape = (worker.worker_class, worker.cores)
        pool = self._idle_by_shape[shape]
        del pool[worker]
        if not pool:
            del self._idle_by_shape[shape]

    def total_alive(self) -> int:
        """Idle + busy workers."""
        return len(self._idle) + len(self._busy)

    def booting_total(self) -> int:
        """Workers currently booting/resizing."""
        return sum(self.booting_for_stage.values())

    # -- matching ---------------------------------------------------------------
    def acquire(self, worker_class: str, cores: int) -> Optional[Worker]:
        """Take an idle worker of exactly *cores* cores (and class).

        Matching is exact-shape: workers belong to pools keyed by their
        vCPU count ("a worker ... assigned to a pool that uses a different
        number of threads" must be re-pooled through a restart, paper
        Section IV-B).  Class must match too -- workers carry
        per-application software stacks.  Of several matches, the one
        idle longest is taken.
        """
        pool = self._idle_by_shape.get((worker_class, cores))
        if pool is None:
            return None
        worker = next(iter(pool))
        self._idle_remove(worker)
        worker.idle_since = None
        self._busy.add(worker)
        return worker

    def repool_candidate(self, worker_class: str, cores: int) -> Optional[Worker]:
        """An idle worker that could be resized to *cores*.

        Prefers shrink/same-size resizes (they never need new tier
        capacity); a growing resize is offered only if its tier can absorb
        the extra cores.
        """
        candidates = [w for w in self._idle if w.worker_class == worker_class]
        candidates.sort(key=lambda w: (w.cores < cores, abs(w.cores - cores)))
        for worker in candidates:
            if worker.cores == cores:
                # Same shape, different pool semantics: still needs the
                # restart (thread-count change is a VCPU reconfiguration in
                # the paper's CELAR flow), but always feasible.
                return worker
            delta = cores - worker.cores
            if delta < 0:
                return worker
            tier = worker.vm.infrastructure.tier(worker.tier)
            if tier.can_allocate(delta):
                return worker
        return None

    def repool(self, worker: Worker, cores: int, stage: int) -> Worker:
        """Resize an idle worker for a new role (restart penalty).

        The reshape (and its core-delta accounting) happens synchronously;
        the reboot runs as a background process and the worker re-enters
        the idle pool when READY.
        """
        if worker not in self._idle:
            raise SchedulingError(f"{worker!r} is not idle; cannot repool")
        self._idle_remove(worker)
        worker.idle_since = None
        self.celar.begin_resize(worker.vm, cores)
        self.booting_for_stage[stage] += 1
        self.repools += 1
        self.env.process(self._boot_and_attach(worker, stage))
        return worker

    def hire(self, worker_class: str, cores: int, tier: str, stage: int) -> Worker:
        """Deploy a fresh worker for *stage*: cores claimed now, boot async.

        May raise :class:`~repro.core.errors.TransientDeployError` when a
        fault injector is bouncing deploys; nothing is claimed in that case.
        """
        vm = self.celar.deploy(cores, tier)
        worker = Worker(vm, worker_class)
        self.booting_for_stage[stage] += 1
        self.hires[vm.tier] += 1
        self.env.process(self._boot_and_attach(worker, stage))
        return worker

    def _finish_boot_slot(self, stage: int) -> None:
        """Release one booting slot; prune the stage entry at zero."""
        self.booting_for_stage[stage] -= 1
        if self.booting_for_stage[stage] <= 0:
            del self.booting_for_stage[stage]

    def _boot_and_attach(self, worker: Worker, stage: int):
        """Process: boot a claimed worker, then offer it to the pool.

        Three exits: the happy path attaches the worker; an injected boot
        failure terminates it (counted in ``boot_failures``); a crash
        doom-timer may also have killed the VM mid-boot.  Every exit
        notifies ``on_available`` -- a stage that waited on this boot must
        re-decide even (especially) when the worker never arrives, or it
        would stall forever.
        """
        span = None
        if self.tracer is not None:
            lane = self.tracer.lane(
                self._lane_for_worker(worker.uid),
                f"worker {worker.uid} ({worker.tier} x{worker.cores})",
            )
            # Boot spans the startup penalty in sim time -> sync=False.
            span = self.tracer.span(
                "vm.boot",
                "cloud",
                lane=lane,
                args={"tier": worker.tier, "cores": worker.cores,
                      "stage": stage},
                sync=False,
            )
        try:
            if span is not None:
                with span:
                    yield from worker.vm.boot()
            else:
                yield from worker.vm.boot()
        finally:
            self._finish_boot_slot(stage)
        if (
            worker.vm.alive
            and self.injector is not None
            and self.injector.boot_fails(worker.tier)
        ):
            self.boot_failures += 1
            self.celar.terminate(worker.vm)
        if worker.vm.alive:
            if self._crashes_enabled and not worker.doom_armed:
                worker.doom_armed = True
                self.env.process(self._doom(worker))
            eviction_mtbf = self._eviction_mtbf(worker)
            if eviction_mtbf is not None and not worker.eviction_armed:
                worker.eviction_armed = True
                self.env.process(self._evict(worker, eviction_mtbf))
            self._make_available(worker)
        elif self.on_available is not None:
            self.on_available()

    def _doom(self, worker: Worker):
        """Process: kill the worker's VM after its drawn lifetime.

        Exponential lifetimes are memoryless, so one timer per worker is
        the exact model regardless of repools/reboots in between.
        """
        assert self.injector is not None
        lifetime = self.injector.draw_lifetime(worker.tier)
        yield self.env.timeout(lifetime)
        if not worker.vm.alive:
            return  # already reaped/terminated: nothing to kill
        if worker.vm.state is VMState.BOOTING:
            # Mid-repool death: the worker sits in neither pool (repool
            # removed it from idle).  Terminate now; _boot_and_attach sees
            # the dead VM when the boot timeout elapses and notifies the
            # waiting stage itself.
            self.failed += 1
            self.celar.terminate(worker.vm)
            return
        self.failed += 1
        was_busy = worker in self._busy
        if worker in self._idle:
            self._idle_remove(worker)
        self._busy.discard(worker)
        self.celar.terminate(worker.vm)
        if was_busy and self.on_worker_failed is not None:
            self.on_worker_failed(worker)
        # Freed capacity (and a possibly-lost worker) can change dispatch
        # decisions either way.
        if self.on_available is not None:
            self.on_available()

    def _eviction_mtbf(self, worker: Worker) -> Optional[float]:
        """The worker tier's eviction MTBF, if evictions apply to it.

        Only spot-style backends expose ``effective_eviction_mtbf``; an
        injector must be present (it owns the ``faults.spot`` stream).
        """
        if self.injector is None:
            return None
        tier = self.celar.infrastructure.tier(worker.tier)
        return getattr(tier, "effective_eviction_mtbf", None)

    def _evict(self, worker: Worker, mtbf_tu: float):
        """Process: the provider reclaims a spot worker after an
        exponential lifetime drawn from the ``faults.spot`` stream.

        Mirrors :meth:`_doom` exactly -- a busy victim's task is
        interrupted via ``on_worker_failed`` and flows through the
        scheduler's retry / dead-letter resilience path.
        """
        assert self.injector is not None
        lifetime = self.injector.draw_eviction(mtbf_tu)
        yield self.env.timeout(lifetime)
        if not worker.vm.alive:
            return
        worker.evicted = True
        tier = self.celar.infrastructure.tier(worker.tier)
        record = getattr(tier, "record_eviction", None)
        if record is not None:
            record()
        self.evicted += 1
        if worker.vm.state is VMState.BOOTING:
            self.failed += 1
            self.celar.terminate(worker.vm)
            return
        self.failed += 1
        was_busy = worker in self._busy
        if worker in self._idle:
            self._idle_remove(worker)
        self._busy.discard(worker)
        self.celar.terminate(worker.vm)
        if was_busy and self.on_worker_failed is not None:
            self.on_worker_failed(worker)
        if self.on_available is not None:
            self.on_available()

    def _make_available(self, worker: Worker) -> None:
        worker.idle_since = self.env.now
        worker.busy_until = None
        self._idle_add(worker)
        if self.on_available is not None:
            self.on_available()

    def release(self, worker: Worker) -> None:
        """Return a worker to the idle pool after a task."""
        if worker not in self._busy:
            raise SchedulingError(f"{worker!r} was not busy")
        self._busy.remove(worker)
        worker.vm.mark_idle()
        self._make_available(worker)

    def release_unstarted(self, worker: Worker) -> None:
        """Return a worker whose task never ran (stale speculative attempt).

        The VM never left READY (``mark_busy`` was not called), so this
        skips the BUSY->READY transition that :meth:`release` performs.
        """
        if worker not in self._busy:
            raise SchedulingError(f"{worker!r} was not busy")
        self._busy.remove(worker)
        if worker.vm.alive:
            self._make_available(worker)
        elif self.on_available is not None:
            self.on_available()

    # -- wait estimation ----------------------------------------------------------
    def estimate_wait(self, worker_class: str, cores: int, penalty_tu: float) -> float:
        """Expected time until a suitable worker frees up.

        Minimum over busy workers of their predicted remaining time; a
        worker whose shape does not match exactly adds the re-pool
        (restart) penalty.  Returns ``inf`` when nothing is busy (nothing
        will ever free by itself).
        """
        best = float("inf")
        now = self.env.now
        for worker in self._busy:
            if worker.busy_until is None:
                continue
            remaining = max(worker.busy_until - now, 0.0)
            if worker.worker_class != worker_class or worker.cores != cores:
                remaining += penalty_tu
            best = min(best, remaining)
        return best

    # -- reaping ---------------------------------------------------------------
    def start_reaper(self):
        """Process: periodically terminate workers idle past the timeout."""
        if self._reaper_started:
            raise SchedulingError("reaper already running")
        self._reaper_started = True
        while True:
            yield self.env.timeout(self.reap_interval_tu)
            self.reap(self.env.now)

    def reap(self, now: float) -> int:
        """Terminate idle-expired workers; returns how many died."""
        expired = [
            worker
            for worker in self._idle
            if worker.idle_since is not None
            and now - worker.idle_since >= self.idle_timeout_tu
        ]
        for worker in expired:
            self.celar.terminate(worker.vm)
            self._idle_remove(worker)
        dead = len(expired)
        self.reaped += dead
        if dead and self.on_available is not None:
            # Freed tier capacity may unblock a waiting hire decision.
            self.on_available()
        return dead

    def force_free(self, tier: str, cores: int) -> bool:
        """Terminate idle workers on *tier* until *cores* fit there.

        Returns True on success.  Used to break the never-scale stall
        where the base tier is full of idle-but-wrong-shape workers.
        """
        victims = [w for w in self._idle if w.tier == tier]
        victims.sort(key=lambda w: -w.cores)
        tier_obj = self.celar.infrastructure.tier(tier)
        for worker in victims:
            if tier_obj.can_allocate(cores):
                break
            self._idle_remove(worker)
            self.celar.terminate(worker.vm)
            self.reaped += 1
        return tier_obj.can_allocate(cores)
