"""Parameter sweeps over the Table I grid.

"We ran a number of simulation sessions, varying the parameters shown in
Table I ... We explored all permutations of resource allocation algorithm,
horizontal scaling algorithm, reward scheme and workload" (Section IV).

:func:`run_sweep` executes a :class:`SweepSpec` -- any subset of the Table I
axes -- with N repetitions per cell, aggregating each metric into the
paper's mean +/- 1 sigma form.  It is the only sweep executor: every
repetition becomes a :class:`~repro.sim.results.ResultRecord`, optionally
appended to a result ledger, and folded into one
:class:`~repro.sim.results.SweepAggregator`.  ``jobs`` only chooses who
runs the tasks -- this process in grid order, or a process pool with
retries, a round timeout and dead-lettering -- so the rows are
bit-identical for every ``jobs`` value.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Container, Iterator, Optional, Sequence

from repro.analysis.stats import SummaryStats, aggregate_runs
from repro.apps.registry import ApplicationRegistry
from repro.core.config import (
    AllocationAlgorithm,
    PlatformConfig,
    RewardScheme,
    ScalingAlgorithm,
)
from repro.core.errors import ConfigurationError
from repro.scheduler.resilience import RetryPolicy
from repro.sim.results import (
    SweepAggregator,
    failed_records,
    open_result_stream,
    records_from_runs,
    sweep_meta,
)
from repro.sim.session import run_repetitions

__all__ = [
    "SweepSpec",
    "SweepRow",
    "run_cell_runs",
    "row_from_runs",
    "run_sweep",
    "resolve_jobs",
    "TaskFailure",
    "SweepExecutionError",
    "TASK_RETRY",
    "TABLE1_FULL",
]

#: Retry budget and backoff for crashed or timed-out pool tasks.  Delays
#: are wall-clock seconds (the policy's TU fields reinterpreted).
TASK_RETRY = RetryPolicy(
    max_attempts=3, base_delay_tu=0.05, backoff_factor=2.0, max_delay_tu=1.0
)


@dataclass(frozen=True)
class SweepSpec:
    """The axes to sweep; each defaults to a single (paper-default) value."""

    allocation: tuple[AllocationAlgorithm, ...] = (AllocationAlgorithm.GREEDY,)
    scaling: tuple[ScalingAlgorithm, ...] = (ScalingAlgorithm.PREDICTIVE,)
    mean_interarrival: tuple[float, ...] = (2.5,)
    reward_scheme: tuple[RewardScheme, ...] = (RewardScheme.TIME,)
    public_core_cost: tuple[float, ...] = (50.0,)

    def cells(self) -> Iterator[dict[str, Any]]:
        """All grid cells as parameter dicts."""
        for alloc, scale, interval, scheme, cost in itertools.product(
            self.allocation,
            self.scaling,
            self.mean_interarrival,
            self.reward_scheme,
            self.public_core_cost,
        ):
            yield {
                "allocation": alloc,
                "scaling": scale,
                "mean_interarrival": interval,
                "reward_scheme": scheme,
                "public_core_cost": cost,
            }

    def size(self) -> int:
        """Number of grid cells."""
        return (
            len(self.allocation)
            * len(self.scaling)
            * len(self.mean_interarrival)
            * len(self.reward_scheme)
            * len(self.public_core_cost)
        )


#: The complete Table I grid, exactly as printed.
TABLE1_FULL = SweepSpec(
    allocation=(
        AllocationAlgorithm.GREEDY,
        AllocationAlgorithm.LONG_TERM,
        AllocationAlgorithm.LONG_TERM_ADAPTIVE,
        AllocationAlgorithm.BEST_CONSTANT,
    ),
    scaling=(
        ScalingAlgorithm.ALWAYS,
        ScalingAlgorithm.NEVER,
        ScalingAlgorithm.PREDICTIVE,
    ),
    mean_interarrival=tuple(round(2.0 + 0.1 * i, 1) for i in range(11)),
    reward_scheme=(RewardScheme.TIME, RewardScheme.THROUGHPUT),
    public_core_cost=(20.0, 50.0, 80.0, 110.0),
)


@dataclass(frozen=True)
class SweepRow:
    """One grid cell's parameters and aggregated metrics."""

    params: dict[str, Any]
    metrics: dict[str, SummaryStats]
    repetitions: int

    def __getitem__(self, metric: str) -> SummaryStats:
        return self.metrics[metric]

    def param(self, name: str) -> Any:
        """One of the cell's swept parameter values."""
        return self.params[name]

    def as_flat_dict(self) -> dict[str, Any]:
        """Parameters plus mean/std per metric, flat."""
        out: dict[str, Any] = {
            k: getattr(v, "value", v) for k, v in self.params.items()
        }
        for name, stats in self.metrics.items():
            out[f"{name}_mean"] = stats.mean
            out[f"{name}_std"] = stats.std
        return out


def apply_cell(base: PlatformConfig, cell: dict[str, Any]) -> PlatformConfig:
    """Overlay one grid cell's parameters onto *base*."""
    return base.with_overrides(
        scheduler={
            "allocation": cell["allocation"],
            "scaling": cell["scaling"],
        },
        workload={"mean_interarrival": cell["mean_interarrival"]},
        reward={"scheme": cell["reward_scheme"]},
        cloud={"public_core_cost": cell["public_core_cost"]},
    )


def run_cell_runs(
    base: PlatformConfig,
    cell: dict[str, Any],
    repetitions: Optional[int] = None,
    base_seed: Optional[int] = None,
    registry: Optional[ApplicationRegistry] = None,
    seeds: Optional[Sequence[int]] = None,
) -> list[dict[str, float]]:
    """Run one grid cell's repetitions; per-run metric dicts, in seed order.

    Every sweep task runs its slice of a cell through this function, in
    this process or in a pool worker; the records it yields are folded by
    :func:`row_from_runs`.
    """
    config = apply_cell(base, cell)
    results = run_repetitions(
        config,
        repetitions=repetitions,
        base_seed=base_seed,
        registry=registry,
        seeds=seeds,
    )
    return [r.metrics() for r in results]


def row_from_runs(
    cell: dict[str, Any], per_run: Sequence[dict[str, float]]
) -> SweepRow:
    """Aggregate per-run metric dicts (in repetition order) into a row.

    The aggregator calls this with the runs of a completed cell, and
    because JSON round-trips Python floats exactly, a row rebuilt from
    ledger records is bit-identical to one that never touched disk.
    """
    return SweepRow(
        params=dict(cell),
        metrics=aggregate_runs(list(per_run)),
        repetitions=len(per_run),
    )


def resolve_jobs(jobs: int) -> int:
    """Worker count for a ``--jobs`` value: 0 means one per CPU core."""
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class TaskFailure:
    """Post-mortem of one task that exhausted its retry budget."""

    cell_index: int
    cell: dict[str, Any]
    rep_start: int
    attempts: int
    reason: str


class SweepExecutionError(RuntimeError):
    """Raised when one or more sweep tasks were dead-lettered."""

    def __init__(self, failures: Sequence[TaskFailure]) -> None:
        self.failures = tuple(failures)
        lines = ", ".join(
            f"cell {f.cell_index} reps {f.rep_start}+ "
            f"({f.attempts} attempts: {f.reason})"
            for f in self.failures
        )
        super().__init__(f"{len(self.failures)} sweep task(s) failed: {lines}")


# -- tasks --------------------------------------------------------------------


@dataclass(frozen=True)
class _TaskPayload:
    """One cell's missing repetitions; picklable unless ``registry`` is set."""

    cell_index: int
    cell: dict[str, Any]
    base: PlatformConfig
    #: The repetition indices this task covers, aligned with ``seeds``.
    #: All of them on a fresh sweep; the ones the ledger lacks on resume.
    rep_indices: tuple[int, ...]
    seeds: tuple[int, ...]
    registry: Optional[ApplicationRegistry] = None

    @property
    def rep_start(self) -> int:
        return self.rep_indices[0]


#: One task's per-repetition metric dicts, aligned with the payload's seeds.
_TaskResult = tuple[dict[str, float], ...]


def _run_task(payload: _TaskPayload) -> _TaskResult:
    """Run one task's repetitions."""
    return tuple(
        run_cell_runs(
            payload.base,
            payload.cell,
            registry=payload.registry,
            seeds=payload.seeds,
        )
    )


def _build_tasks(
    base: PlatformConfig,
    cells: Sequence[dict[str, Any]],
    repetitions: int,
    base_seed: int,
    registry: Optional[ApplicationRegistry],
    skip: Container[tuple[int, int]],
) -> dict[int, _TaskPayload]:
    """One task per cell over the (cell, rep) keys not in ``skip``.

    Repetition *k* gets seed ``base_seed + k`` in every cell: the common
    random numbers of :func:`~repro.sim.session.run_repetitions`, so cells
    compared under one base seed see identical arrival processes.
    """
    tasks: dict[int, _TaskPayload] = {}
    for cell_index, cell in enumerate(cells):
        missing = tuple(
            k for k in range(repetitions) if (cell_index, k) not in skip
        )
        if missing:
            tasks[cell_index] = _TaskPayload(
                cell_index=cell_index,
                cell=dict(cell),
                base=base,
                rep_indices=missing,
                seeds=tuple(base_seed + k for k in missing),
                registry=registry,
            )
    return tasks


# -- the executor -------------------------------------------------------------


def run_sweep(
    base: PlatformConfig,
    spec: SweepSpec,
    repetitions: Optional[int] = None,
    base_seed: Optional[int] = None,
    registry: Optional[ApplicationRegistry] = None,
    progress: Optional[Any] = None,
    jobs: int = 1,
    results: Optional[Any] = None,
    resume: bool = False,
    task_runner: Callable[[_TaskPayload], _TaskResult] = _run_task,
    task_timeout_s: Optional[float] = None,
) -> list[SweepRow]:
    """Run every cell of *spec*; returns one aggregated row per cell.

    ``jobs == 1`` runs the tasks in this process, in grid order: a custom
    ``registry`` is allowed and a task exception propagates unchanged.
    Any other value runs them on a process pool of
    :func:`resolve_jobs` workers: crashed tasks, and tasks still running
    ``task_timeout_s`` wall-clock seconds into their round, are retried in
    a fresh pool with :data:`TASK_RETRY` backoff; a task that exhausts the
    budget is dead-lettered and reported in one
    :class:`SweepExecutionError` once the rest of the grid has finished.
    The rows are bit-identical for every ``jobs`` value.

    ``progress(done, total, cell)`` fires once per cell this call
    completes; ``done`` counts the cells a resumed ledger already held.
    ``task_runner`` exists for fault injection in tests; the pool needs it
    picklable.

    ``results``, a :class:`~repro.sim.results.ResultStore`, receives every
    repetition as its task lands (this process is the only writer), and
    dead-lettered repetitions as ``failed``.  With ``resume=True`` the
    repetitions the store already holds are not run again; the rows still
    equal an uninterrupted sweep's.
    """
    base.validate()
    n_workers = resolve_jobs(jobs)
    n_reps = base.simulation.repetitions if repetitions is None else repetitions
    if n_reps < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {n_reps}")
    if task_timeout_s is not None and task_timeout_s <= 0:
        raise ConfigurationError("task_timeout_s must be positive when given")
    if registry is not None and jobs != 1:
        # Pool workers rebuild the default registry per process; shipping
        # a custom one through pickle is not supported -- fail loudly
        # instead of silently computing different rows.
        raise ValueError(
            "a custom registry needs jobs=1; pool workers only see "
            "default_registry"
        )
    seed0 = base.simulation.seed if base_seed is None else base_seed
    cells = list(spec.cells())
    agg = SweepAggregator(cells, n_reps)
    skip: Container[tuple[int, int]] = ()
    if results is not None:
        meta = sweep_meta(base, cells, n_reps, seed0)
        state = open_result_stream(results, meta, resume=resume)
        agg.add_all(state.completed.values())
        skip = state.completed
    tasks = _build_tasks(base, cells, n_reps, seed0, registry, skip)

    def land(payload: _TaskPayload, per_run: _TaskResult) -> None:
        """Persist and fold one task's repetitions as soon as it lands."""
        for record in records_from_runs(
            payload.cell_index, payload.rep_indices, payload.seeds, per_run,
        ):
            if results is not None:
                results.record(record)
            if agg.add(record) is not None and progress is not None:
                progress(agg.done_cells, len(cells), cells[record.cell_index])

    failures: list[TaskFailure] = []
    if jobs == 1:
        for payload in tasks.values():
            land(payload, task_runner(payload))
    else:
        failures = _run_pool(
            tasks, n_workers, task_runner, task_timeout_s, land, results
        )
    if failures:
        failures.sort(key=lambda f: (f.cell_index, f.rep_start))
        raise SweepExecutionError(failures)
    return agg.rows()


def _run_pool(
    tasks: dict[int, _TaskPayload],
    n_workers: int,
    task_runner: Callable[[_TaskPayload], _TaskResult],
    task_timeout_s: Optional[float],
    land: Callable[[_TaskPayload, _TaskResult], None],
    results: Optional[Any],
) -> list[TaskFailure]:
    """Run *tasks* in rounds of fresh process pools.

    Returns the tasks that exhausted :data:`TASK_RETRY`; with a result store, those are dead-lettered into
    it as ``failed`` records, so the next resume schedules them again.
    """
    # Imported here: a serial sweep or a single session never loads
    # concurrent.futures (and with it multiprocessing).
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    pending = dict(tasks)
    attempts = {key: 0 for key in pending}
    failures: list[TaskFailure] = []
    while pending:
        round_tasks = dict(sorted(pending.items()))
        pending = {}
        pool = ProcessPoolExecutor(max_workers=n_workers)
        futures = {
            pool.submit(task_runner, payload): key
            for key, payload in round_tasks.items()
        }
        round_failed: list[tuple[int, str]] = []
        # Drain futures as they land -- NOT in one blocking wait() -- so
        # records hit the ledger while the round is still in flight; a
        # kill mid-round then loses at most the unpersisted tail, which
        # is what makes ``--resume`` worth having.  One deadline bounds
        # the whole round: stragglers past it are abandoned with their
        # pool and retried in a fresh one.
        deadline = (
            time.monotonic() + task_timeout_s
            if task_timeout_s is not None
            else None
        )
        not_done = set(futures)
        while not_done:
            timeout = (
                max(0.0, deadline - time.monotonic())
                if deadline is not None
                else None
            )
            finished, not_done = wait(
                not_done, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not finished:
                break  # round deadline hit with stragglers in flight
            for future in finished:
                key = futures[future]
                attempts[key] += 1
                try:
                    result = future.result()
                except BaseException as exc:  # worker crash / pool breakage
                    round_failed.append((key, f"{type(exc).__name__}: {exc}"))
                else:
                    land(round_tasks[key], result)
        pool.shutdown(wait=len(not_done) == 0, cancel_futures=True)
        for future in not_done:
            key = futures[future]
            attempts[key] += 1
            round_failed.append((key, f"timeout after {task_timeout_s}s"))
        max_backoff = 0.0
        for key, reason in round_failed:
            payload = round_tasks[key]
            if TASK_RETRY.exhausted(attempts[key]):
                failures.append(
                    TaskFailure(
                        cell_index=payload.cell_index,
                        cell=dict(payload.cell),
                        rep_start=payload.rep_start,
                        attempts=attempts[key],
                        reason=reason,
                    )
                )
                if results is not None:
                    for record in failed_records(
                        payload.cell_index,
                        payload.rep_indices,
                        payload.seeds,
                        reason,
                    ):
                        results.record(record)
            else:
                pending[key] = payload
                max_backoff = max(max_backoff, TASK_RETRY.delay_for(attempts[key]))
        if pending and max_backoff > 0:
            time.sleep(max_backoff)
    return failures
