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

import heapq
import itertools
from bisect import bisect_left, insort
from collections import Counter
from typing import Callable, Optional

from repro.cloud.celar import CelarManager
from repro.cloud.faults import FaultInjector
from repro.cloud.vm import VirtualMachine, VMState
from repro.core.bus import EventBus, WorkerBooted
from repro.core.errors import SchedulingError
from repro.desim.engine import Environment, Event

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
        #: When the current task will finish; None while idle.  Set only
        #: by :meth:`WorkerPools.start`, from the task's true (simulated)
        #: duration, not from the estimator's prediction.
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
        bus: Optional[EventBus] = None,
    ) -> None:
        if idle_timeout_tu < 0 or reap_interval_tu <= 0:
            raise SchedulingError("invalid reaper configuration")
        self.env = env
        self.celar = celar
        self.idle_timeout_tu = idle_timeout_tu
        self.reap_interval_tu = reap_interval_tu
        self.injector = injector
        #: Where boot completions are announced (:class:`WorkerBooted`).
        self.bus = bus if bus is not None else EventBus()
        #: Idle workers in the order they became idle (a dict as an
        #: ordered set), and the same workers per (class, cores) shape in
        #: the same order, so :meth:`acquire` is one lookup.
        self._idle: dict[Worker, None] = {}
        self._idle_by_shape: dict[tuple[str, int], dict[Worker, None]] = {}
        #: Per class, the core counts of its idle shapes in ascending
        #: order (the keys of ``_idle_by_shape``), for :meth:`repool_candidate`.
        self._idle_cores: dict[str, list[int]] = {}
        self._busy: set[Worker] = set()
        #: Per (class, cores) shape, a min-heap of ``(busy_until, uid,
        #: worker)`` pushed by :meth:`start`.  Deletion is lazy: an entry
        #: is live only while its worker is busy with that finish time in
        #: that shape; stale heads are popped when a heap is read.  None
        #: until the first :meth:`estimate_wait`, so sessions that never
        #: weigh hire-or-wait pay no pushes.
        self._busy_heaps: Optional[dict[tuple[str, int], list]] = None
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
            insort(self._idle_cores.setdefault(worker.worker_class, []), worker.cores)
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
            self._idle_cores[worker.worker_class].remove(worker.cores)

    def busy_total(self) -> int:
        """Busy workers."""
        return len(self._busy)

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
        # Shapes nearest first, growing ones last, each shape's pool in
        # idle order.  The smallest shape of at least *cores* wins outright:
        # same shape, different pool semantics still needs the restart
        # (a thread-count change is a VCPU reconfiguration in the paper's
        # CELAR flow), but it is always feasible.
        shapes = self._idle_cores.get(worker_class)
        if not shapes:
            return None
        at = bisect_left(shapes, cores)
        if at < len(shapes):
            return next(iter(self._idle_by_shape[(worker_class, shapes[at])]))
        # Every shape is smaller: the largest grows least.
        for shape_cores in reversed(shapes):
            pool = self._idle_by_shape[(worker_class, shape_cores)]
            delta = cores - shape_cores
            fits: dict[str, bool] = {}
            for worker in pool:
                fit = fits.get(worker.tier)
                if fit is None:
                    tier = worker.vm.infrastructure.tier(worker.tier)
                    fit = fits[worker.tier] = tier.can_allocate(delta)
                if fit:
                    return worker
        return None

    def repool(self, worker: Worker, cores: int, stage: int) -> Worker:
        """Resize an idle worker for a new role (restart penalty).

        The reshape (and its core-delta accounting) happens synchronously;
        the reboot runs from the calendar and the worker re-enters the
        idle pool when READY.
        """
        if worker not in self._idle:
            raise SchedulingError(f"{worker!r} is not idle; cannot repool")
        self._idle_remove(worker)
        worker.idle_since = None
        self.celar.begin_resize(worker.vm, cores)
        self.booting_for_stage[stage] += 1
        self.repools += 1
        self.env.defer(self._begin_boot, (worker, stage))
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
        self.env.defer(self._begin_boot, (worker, stage))
        return worker

    def _finish_boot_slot(self, stage: int) -> None:
        """Release one booting slot; prune the stage entry at zero."""
        self.booting_for_stage[stage] -= 1
        if self.booting_for_stage[stage] <= 0:
            del self.booting_for_stage[stage]

    def _begin_boot(self, event: Event) -> None:
        """Calendar callback: boot a claimed worker, then :meth:`_attach` it.

        The boot starts one URGENT hop after the hire or repool, as a new
        process's body would, and :meth:`_attach` runs once the VM's
        startup penalty has passed (at once when it is zero).
        """
        worker, _stage = event.value
        penalty = worker.vm.begin_boot()
        if penalty > 0:
            self.env.timeout(penalty, event.value).callbacks.append(self._attach)
        else:
            self._attach(event)

    def _attach(self, event: Event) -> None:
        """Calendar callback: a boot ended; offer the worker to the pool.

        Three exits: the happy path attaches the worker; an injected boot
        failure terminates it (counted in ``boot_failures``); a crash
        doom-timer may also have killed the VM mid-boot.  The boot's end
        is published as :class:`~repro.core.bus.WorkerBooted` before any
        of them.  Every exit notifies ``on_available`` -- a stage that
        waited on this boot must re-decide even (especially) when the
        worker never arrives, or it would stall forever.
        """
        worker, stage = event.value
        worker.vm.finish_boot()
        self._finish_boot_slot(stage)
        if WorkerBooted in self.bus:
            self.bus.publish(
                WorkerBooted(
                    self.env.now, worker.uid, worker.tier, worker.cores, stage
                )
            )
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
                self.env.defer(self._arm_doom, worker)
            eviction_mtbf = self._eviction_mtbf(worker)
            if eviction_mtbf is not None and not worker.eviction_armed:
                worker.eviction_armed = True
                self.env.defer(self._arm_eviction, (worker, eviction_mtbf))
            self._make_available(worker)
        elif self.on_available is not None:
            self.on_available()

    def _arm_doom(self, event: Event) -> None:
        """Calendar callback: draw the worker's lifetime, then :meth:`_doom`.

        Exponential lifetimes are memoryless, so one timer per worker is
        the exact model regardless of repools/reboots in between.
        """
        assert self.injector is not None
        worker = event.value
        lifetime = self.injector.draw_lifetime(worker.tier)
        self.env.timeout(lifetime, worker).callbacks.append(self._doom)

    def _doom(self, event: Event) -> None:
        """Calendar callback: the drawn lifetime is over; kill the VM."""
        worker = event.value
        if worker.vm.alive:  # else already reaped/terminated
            self._kill(worker)

    def _eviction_mtbf(self, worker: Worker) -> Optional[float]:
        """The worker tier's eviction MTBF, if evictions apply to it.

        Only spot-style backends expose ``effective_eviction_mtbf``; an
        injector must be present (it owns the ``faults.spot`` stream).
        """
        if self.injector is None:
            return None
        tier = self.celar.infrastructure.tier(worker.tier)
        return getattr(tier, "effective_eviction_mtbf", None)

    def _arm_eviction(self, event: Event) -> None:
        """Calendar callback: draw when the provider reclaims a spot
        worker (an exponential lifetime from the ``faults.spot`` stream),
        then :meth:`_evict`."""
        assert self.injector is not None
        worker, mtbf_tu = event.value
        lifetime = self.injector.draw_eviction(mtbf_tu)
        self.env.timeout(lifetime, worker).callbacks.append(self._evict)

    def _evict(self, event: Event) -> None:
        """Calendar callback: the provider reclaims the worker.

        Killed exactly as by :meth:`_doom` -- a busy victim's task is
        interrupted via ``on_worker_failed`` and flows through the
        scheduler's retry / dead-letter resilience path.
        """
        worker = event.value
        if not worker.vm.alive:
            return
        worker.evicted = True
        tier = self.celar.infrastructure.tier(worker.tier)
        record = getattr(tier, "record_eviction", None)
        if record is not None:
            record()
        self.evicted += 1
        self._kill(worker)

    def _kill(self, worker: Worker) -> None:
        """Terminate a live worker's VM wherever it is in its lifecycle."""
        self.failed += 1
        if worker.vm.state is VMState.BOOTING:
            # Mid-repool death: the worker sits in neither pool (repool
            # removed it from idle).  Terminate now; _attach sees the dead
            # VM when the boot penalty elapses and notifies the waiting
            # stage itself.
            self.celar.terminate(worker.vm)
            return
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
    def start(self, worker: Worker, busy_until: float) -> None:
        """Record that busy *worker* runs a task until *busy_until*."""
        worker.busy_until = busy_until
        if self._busy_heaps is not None:
            self._push(self._busy_heaps, worker)

    def _push(self, heaps: dict[tuple[str, int], list], worker: Worker) -> None:
        shape = (worker.worker_class, worker.cores)
        heap = heaps.get(shape)
        if heap is None:
            heap = heaps[shape] = []
        elif len(heap) > 2 * len(self._busy) + 32:
            # Keep the heap O(busy): drop every stale entry at once.
            heap[:] = [e for e in heap if self._live(e, shape[1])]
            heapq.heapify(heap)
        heapq.heappush(heap, (worker.busy_until, worker.uid, worker))

    def _live(self, entry: tuple, cores: int) -> bool:
        """Whether a heap entry of a *cores*-core shape is still running."""
        until, _uid, worker = entry
        return (
            worker in self._busy
            and worker.busy_until == until
            and worker.cores == cores
        )

    def estimate_wait(self, worker_class: str, cores: int, penalty_tu: float) -> float:
        """Expected time until a suitable worker frees up.

        Minimum over running workers of the time left until their
        ``busy_until`` (the task's true finish, not a prediction); a
        worker whose shape does not match exactly adds the re-pool
        (restart) penalty.  ``inf`` when nothing runs (nothing will ever
        free by itself).

        Read off the heaps as the soonest finish of the exact shape and
        of any shape: ``x -> max(x - now, 0)`` and ``+ penalty`` are
        monotone, so this is that minimum's exact float, and as the
        penalty is >= 0 a matching worker's penalised term never
        undercuts its exact one.
        """
        if penalty_tu < 0:
            raise SchedulingError(f"negative restart penalty {penalty_tu}")
        heaps = self._busy_heaps
        if heaps is None:
            heaps = self._busy_heaps = {}
            for worker in self._busy:
                if worker.busy_until is not None:
                    self._push(heaps, worker)
        inf = float("inf")
        exact = soonest = inf
        wanted = (worker_class, cores)
        for shape, heap in heaps.items():
            while heap and not self._live(heap[0], shape[1]):
                heapq.heappop(heap)
            head = heap[0][0] if heap else inf
            if head < soonest:
                soonest = head
            if shape == wanted:
                exact = head
        now = self.env.now
        return min(
            max(exact - now, 0.0), max(soonest - now, 0.0) + penalty_tu
        )

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
