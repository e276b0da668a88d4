"""ETT / EET / EQT estimation (Eq. 2) and the delay cost (Eq. 1).

From the paper (Section III-A.2)::

    ETT(j) = elapsed_j + sum_{i = S_j ..} ( EQT_i + EET_i(j) )        (2)

    DC(delay) = sum_{j in Q} R(ETT(j), recs_j)
                           - R(ETT(j) + delay, recs_j)                (1)

"We estimate execution time for pipeline stage i, denoted EET_i, using a
linear function of the number of job input records derived from profiling
data.  We also estimate the time we expect a general job to spend in the
queue for stage i, EQT_i."

EET comes from the application's stage models (which the knowledge base
recovered by regression); EQT is an exponentially-weighted moving average
of observed queue waits, updated every time a task leaves a queue.

For DAG workflows Eq. 2's forward sum generalises to the **critical
path**: remaining time is the longest path of per-node (EQT + EET)
through the not-yet-completed subgraph, because independent branches run
concurrently.  Chains keep the original forward-accumulation loop
(same floats, same additions in the same order), so linear-pipeline
estimates are bit-identical to the pre-DAG estimator; they read each
job's EET terms from a per-job row instead of asking the memo per stage.

Under a latency-free reward (the paper's time scheme) neither Eq. 1 nor
the allocation policies' price of time needs an ETT: Eq. 1 has the closed
form ``delay * R'(sum of records)``, and :func:`marginal_value_at_ett`
skips the estimate.  ETT then serves the throughput scheme and the audit
log only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.apps.base import ApplicationModel, StageModel
from repro.core.errors import SchedulingError
from repro.knowledge.plane import EstimateProvider, StaticEstimateProvider
from repro.scheduler.rewards import RewardFunction, is_latency_free
from repro.scheduler.tasks import Job, StageTask
from repro.workflows.compiled import CompiledWorkflow, chain_of

__all__ = [
    "DelayCostTerm",
    "PipelineEstimator",
    "delay_cost",
    "delay_cost_terms",
    "marginal_value_at_ett",
]

#: Entries an estimator's EET memo may hold before it is dropped and
#: rebuilt (sizes are continuous, so an unbounded dict could grow with
#: the job population; re-deriving is always safe because EET is pure).
EET_CACHE_SIZE = 65536


class PipelineEstimator:
    """Per-application time estimation for scheduling decisions.

    EET reads go through an :class:`~repro.knowledge.plane.EstimateProvider`
    (default: a :class:`~repro.knowledge.plane.StaticEstimateProvider`
    over *workflow*, or ``chain_of(app)`` without one, which reproduces
    the profiled coefficients exactly).  The provider's ``epoch`` guards
    the EET memo: when an online refit bumps the knowledge-plane epoch,
    the next ``eet`` call re-reads each memoised stage's ``stage_model``
    and drops the entries of every stage whose model object changed.  A refit touches a few stages; the others keep
    their entries, which stay exact because EET is a pure function of
    (model, size, threads).

    Chain ETT reads a per-job EET row (:meth:`_eet_row`) filled through
    the memo; any stage-model change bumps ``_row_generation``, which
    retires every row this estimator built.
    """

    def __init__(
        self,
        app: ApplicationModel,
        eqt_alpha: float = 0.3,
        estimates: Optional[EstimateProvider] = None,
        workflow: Optional[CompiledWorkflow] = None,
    ) -> None:
        if not 0.0 < eqt_alpha <= 1.0:
            raise SchedulingError("eqt_alpha must lie in (0, 1]")
        self.app = app
        self.eqt_alpha = eqt_alpha
        self.estimates: EstimateProvider = (
            estimates
            if estimates is not None
            else StaticEstimateProvider(
                workflow if workflow is not None else chain_of(app)
            )
        )
        #: The DAG being estimated; ``None`` (or a compiled chain) keeps
        #: every code path on the legacy linear arithmetic.
        self.workflow = workflow
        n_steps = workflow.n_nodes if workflow is not None else app.n_stages
        self._eqt = [0.0] * n_steps
        self._eqt_seen = [0] * n_steps
        # EET memo: (stage, size bucket, threads) -> T_i(t, d).  Buckets
        # are the exact float size -- quantising would change estimates
        # and break serial/parallel bit-equivalence; repeats come from the
        # scheduler re-evaluating the same jobs at every decision point.
        self._eet_cache: dict[tuple[int, float, int], float] = {}
        self._cache_epoch = self.estimates.epoch
        #: The provider's model object each memoised stage's entries were
        #: computed under (compared by identity on an epoch bump).
        self._memo_models: dict[int, StageModel] = {}
        #: Bumped whenever an epoch bump changes some stage's model.
        self._row_generation = 0
        #: Memo hit/miss counters, scoped to this estimator (one session).
        self.cache_hits = 0
        self.cache_misses = 0

    def cache_stats(self) -> dict[str, int]:
        """This estimator's own memo hit/miss counters (a copy)."""
        return {"hits": self.cache_hits, "misses": self.cache_misses}

    # -- EQT ----------------------------------------------------------------
    def observe_queue_wait(self, stage: int, wait: float) -> None:
        """Fold one observed queue wait into EQT_stage (EWMA)."""
        if wait < 0:
            raise SchedulingError(f"negative queue wait {wait}")
        if self._eqt_seen[stage] == 0:
            self._eqt[stage] = wait
        else:
            a = self.eqt_alpha
            self._eqt[stage] = a * wait + (1 - a) * self._eqt[stage]
        self._eqt_seen[stage] += 1

    def eqt(self, stage: int) -> float:
        """Estimated queue time for *stage* (0 until first observation)."""
        return self._eqt[stage]

    # -- EET ----------------------------------------------------------------
    def eet(self, stage: int, size: float, threads: int = 1) -> float:
        """Estimated execution time of *stage* for a job of *size*.

        Memoised: EET is a pure function of (stage, size, threads).  The
        memo serves the plan search's ``threads_per_stage`` ETTs, the DAG
        critical path, the scaling premium/watchdog/cap lookups and the
        fill of each chain job's EET row (:meth:`_eet_row`).  Cached values
        are the uncached computation's exact floats.
        """
        if self._cache_epoch != self.estimates.epoch:
            self._drop_stale_stages()
        key = (stage, size, threads)
        value = self._eet_cache.get(key)
        if value is not None:
            self.cache_hits += 1
            return value
        self.cache_misses += 1
        value = self.estimates.eet(stage, size, threads)
        if stage not in self._memo_models:
            self._memo_models[stage] = self.estimates.stage_model(stage)
        if len(self._eet_cache) >= EET_CACHE_SIZE:
            self._eet_cache.clear()
        self._eet_cache[key] = value
        return value

    def _drop_stale_stages(self) -> None:
        """The knowledge plane installed new facts: forget the memo entries
        of every stage whose model object changed.

        A provider that builds a fresh model on every ``stage_model`` call
        (e.g. :class:`~repro.knowledge.plane.FactProvider`) thereby drops
        the whole memo, as the SPARQL result cache does on a store epoch
        bump.
        """
        stage_model = self.estimates.stage_model
        models = self._memo_models
        stale = set()
        for stage, model in models.items():
            current = stage_model(stage)
            if current is not model:
                models[stage] = current
                stale.add(stage)
        if stale:
            cache = self._eet_cache
            for key in [key for key in cache if key[0] in stale]:
                del cache[key]
            self._row_generation += 1
        self._cache_epoch = self.estimates.epoch

    def _eet_row(self, job: Job) -> tuple[float, ...]:
        """Chain *job*'s ``eet(s, job.input_gb, job.planned_threads(s))`` row.

        Filled through the memo and stored on the job; reused until the
        job's ``plan`` object changes, a stage model changes (the row
        generation) or another estimator prices the job.  Stages before
        the one the row was filled at hold 0.0 and are never read, since a
        chain job's ``current_stage`` only grows; skipping them keeps the
        memo's misses, and so the provider calls, those of a per-stage loop.
        """
        if self._cache_epoch != self.estimates.epoch:
            self._drop_stale_stages()
        plan = job.plan
        cached = job._eet_row
        if (
            cached is not None
            and cached[0] is self
            and cached[1] is plan
            and cached[2] == self._row_generation
        ):
            return cached[3]
        eet = self.eet
        size = job.input_gb
        planned = job.planned_threads
        start = job.current_stage
        row = (0.0,) * start + tuple(
            eet(stage, size, planned(stage))
            for stage in range(start, job.n_stages)
        )
        job._eet_row = (self, plan, self._row_generation, row)
        return row

    # -- ETT (Eq. 2) ----------------------------------------------------------
    def ett(
        self,
        job: Job,
        now: float,
        threads_per_stage: Optional[Sequence[int]] = None,
    ) -> float:
        """Estimated total time for *job*: elapsed + remaining work.

        ``threads_per_stage`` overrides the job's plan for the remaining
        stages (used when evaluating candidate plans; it must cover every
        stage); otherwise the job's plan (or single-threaded) is assumed.

        Chains sum the remaining stages exactly as Eq. 2 writes it, reading
        the EET terms from the job's row (:meth:`_eet_row`), or from the
        memo under an override.  DAGs take the **critical path**:
        independent branches overlap, so the remaining time is the longest
        (EQT + EET) path through the not-yet-completed subgraph, computed
        by one reverse-topological sweep (node indices are topologically
        ordered by construction).
        """
        if threads_per_stage is not None and len(threads_per_stage) < job.n_stages:
            raise SchedulingError(
                f"{job.name}: threads_per_stage has {len(threads_per_stage)} "
                f"entries for {job.n_stages} stages"
            )
        total = job.elapsed(now)
        wf = self.workflow
        if wf is None or wf.is_chain:
            eqt = self._eqt
            if threads_per_stage is not None:
                for stage in range(job.current_stage, job.n_stages):
                    total += eqt[stage] + self.eet(
                        stage, job.input_gb, threads_per_stage[stage]
                    )
                return total
            row = self._eet_row(job)
            for stage in range(job.current_stage, len(row)):
                total += eqt[stage] + row[stage]
            return total
        return total + self._critical_path(job, threads_per_stage)

    def _critical_path(
        self, job: Job, threads_per_stage: Optional[Sequence[int]] = None
    ) -> float:
        """Longest remaining (EQT + EET) path through *job*'s DAG.

        ``f(n) = cost(n) + max(f(c) for remaining children c)`` swept in
        reverse topological order; the answer is the max over remaining
        *frontier* nodes (every parent already complete).  Like the chain
        loop, a currently-executing node is still counted at full cost --
        the estimate is conservative in exactly the same way.
        """
        done = job._done
        eqt = self._eqt
        eet = self.eet
        input_gb = job.input_gb
        threads_of = (
            job.planned_threads
            if threads_per_stage is None
            else threads_per_stage.__getitem__
        )
        downstream = [0.0] * self.workflow.n_nodes
        best = 0.0
        for i, children, parents, scale in self.workflow.reverse_sweep:
            if i in done:
                continue
            cost = eqt[i] + eet(
                i, input_gb if scale == 1.0 else input_gb * scale, threads_of(i)
            )
            # A completed child's entry stays 0.0, so it never wins.
            tail = 0.0
            for child in children:
                if downstream[child] > tail:
                    tail = downstream[child]
            d = cost + tail
            downstream[i] = d
            if d > best:
                for p in parents:
                    if p not in done:
                        break
                else:
                    best = d
        return best


def marginal_value_at_ett(
    reward: RewardFunction,
    estimator: PipelineEstimator,
    job: Job,
    now: float,
    threads_per_stage: Optional[Sequence[int]] = None,
) -> float:
    """``reward.marginal_value`` at *job*'s ETT: CU gained per TU saved.

    The allocation policies' price of time.  A latency-free reward values
    every TU alike, so its ETT (Eq. 2) is never estimated; any other reward
    is asked at ``max(ETT, 0)``, with *threads_per_stage* overriding the
    job's plan as in :meth:`PipelineEstimator.ett`.
    """
    if is_latency_free(reward):
        return reward.marginal_value(0.0, job.records)
    ett = estimator.ett(job, now, threads_per_stage)
    return reward.marginal_value(max(ett, 0.0), job.records)


def _latency_free_delay_cost(
    reward: RewardFunction, delay: float, records: Iterable[float]
) -> float:
    """Eq. 1 in closed form for a latency-free reward.

    Each job's term R(ETT) - R(ETT + delay) is ``delay`` times the marginal
    value at any ETT, so the queue's total is ``delay * R'(sum of records)``,
    with the records summed in queue order.  :func:`delay_cost`,
    :func:`delay_cost_terms` and the audit replay all total Eq. 1 here, so
    an explained decision is the same float as an unexplained one.
    """
    total = 0.0
    for r in records:
        total += r
    return delay * reward.marginal_value(0.0, total)


def delay_cost(
    queue_tasks: Iterable[StageTask],
    estimator: PipelineEstimator,
    reward: RewardFunction,
    delay: float,
    now: float,
) -> float:
    """Eq. 1: reward lost if every job in the queue slips by *delay* TUs.

    Positive values mean delaying is expensive.  A latency-free reward (the
    time scheme) takes the closed form ``delay * R'(sum of records)`` and
    estimates no ETT.  Any other reward sums R(ETT) - R(ETT + delay) job by
    job; the convex throughput scheme thereby charges little for delaying
    an already-late job.
    """
    if delay < 0:
        raise SchedulingError(f"negative delay {delay}")
    if delay == 0:
        return 0.0
    if is_latency_free(reward):
        return _latency_free_delay_cost(
            reward, delay, (task.job.records for task in queue_tasks)
        )
    total = 0.0
    for task in queue_tasks:
        job = task.job
        ett_now = estimator.ett(job, now)
        total += reward(max(ett_now, 0.0), job.records) - reward(
            max(ett_now + delay, 0.0), job.records
        )
    return total


@dataclass(frozen=True)
class DelayCostTerm:
    """One job's contribution to Eq. 1, captured for the audit log.

    ``reward_now - reward_delayed`` is this job's term; the ETT and record
    count are kept so the decision can be replayed against the reward
    function alone, without the live estimator or queue.
    """

    job_uid: int
    ett_now: float
    records: float
    reward_now: float
    reward_delayed: float

    @property
    def cost(self) -> float:
        return self.reward_now - self.reward_delayed


def delay_cost_terms(
    queue_tasks: Iterable[StageTask],
    estimator: PipelineEstimator,
    reward: RewardFunction,
    delay: float,
    now: float,
) -> tuple[float, tuple[DelayCostTerm, ...]]:
    """Eq. 1 with its per-job breakdown, for the audit log.

    Every term carries its job's ETT, even under a latency-free reward, so
    the record explains the decision job by job.  The total is the float
    :func:`delay_cost` returns: the closed form for a latency-free reward,
    the per-job sum otherwise.
    """
    if delay < 0:
        raise SchedulingError(f"negative delay {delay}")
    if delay == 0:
        return 0.0, ()
    terms: list[DelayCostTerm] = []
    for task in queue_tasks:
        job = task.job
        ett_now = estimator.ett(job, now)
        terms.append(
            DelayCostTerm(
                job_uid=job.uid,
                ett_now=ett_now,
                records=job.records,
                reward_now=reward(max(ett_now, 0.0), job.records),
                reward_delayed=reward(max(ett_now + delay, 0.0), job.records),
            )
        )
    if is_latency_free(reward):
        total = _latency_free_delay_cost(
            reward, delay, (term.records for term in terms)
        )
    else:
        total = 0.0
        for term in terms:
            total += term.cost
    return total, tuple(terms)
