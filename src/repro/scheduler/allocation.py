"""Resource-allocation algorithms (Table I, row 1).

These decide the degree of multithreading per pipeline stage -- "ordinarily
this is manually controlled by the user, but in this paper it will be
controlled by our resource allocation algorithm" (Section IV.1) -- trading
the reward for finishing sooner against core-time cost:

- **Greedy**: each stage picks its thread count at the moment it starts,
  maximising that stage's own marginal profit at the current core price.
- **Long-term**: a whole-pipeline plan is optimised once, at submission.
- **Long-term adaptive**: like long-term, but the remaining stages are
  re-optimised at every stage boundary with fresh queue estimates.
- **Best-constant**: one fixed plan, found by offline search over the full
  plan space, used for every run (the paper's baseline: "when every run
  uses the same execution plan").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from repro.apps.base import ApplicationModel, ExecutionPlan, StageModel
from repro.core.config import AllocationAlgorithm
from repro.core.errors import SchedulingError
from repro.core.plugins import Registry
from repro.knowledge.plane import EstimateProvider
from repro.scheduler.costs import TieredCostFunction
from repro.scheduler.estimator import PipelineEstimator, marginal_value_at_ett
from repro.scheduler.rewards import RewardFunction, is_latency_free
from repro.scheduler.tasks import Job

__all__ = [
    "AllocationContext",
    "AllocationPolicy",
    "GreedyAllocation",
    "LongTermAllocation",
    "LongTermAdaptiveAllocation",
    "BestConstantAllocation",
    "ALLOCATION_POLICIES",
    "find_best_constant_plan",
    "make_allocation_policy",
]

#: Plugin registry of allocation-policy factories.  Factories are invoked
#: with keyword arguments from the construction site (``constant_plan``
#: for best-constant); out-of-tree policies register here.
ALLOCATION_POLICIES: "Registry[AllocationPolicy]" = Registry("allocation")


@dataclass
class AllocationContext:
    """Everything an allocation decision may consult."""

    estimator: PipelineEstimator
    reward: RewardFunction
    costs: TieredCostFunction
    thread_choices: tuple[int, ...]
    now: float
    #: The knowledge plane's read interface.  Policies resolve stage
    #: models through :meth:`stage_model`, never through the application's
    #: raw coefficients, so refit facts reach every decision path.  Left
    #: ``None`` by bare test fixtures; the scheduler always supplies it.
    estimates: Optional[EstimateProvider] = None

    def stage_model(self, job: Job, stage: int) -> StageModel:
        """The current model for *stage* (plane-backed when wired)."""
        if self.estimates is not None:
            return self.estimates.stage_model(stage)
        wf = job._workflow
        if wf is not None:
            # Chain workflows alias the app's own StageModel objects, so
            # this is the legacy answer for them too.
            return wf.node(stage).model
        return job.app.stage(stage)


class AllocationPolicy(Protocol):
    """Decides thread counts for jobs/stages."""

    def on_submit(self, job: Job, ctx: AllocationContext) -> None:
        """Called once when *job* is submitted; may set ``job.plan``."""
        ...

    def threads_for_stage(self, job: Job, stage: int, ctx: AllocationContext) -> int:
        """Thread count for *stage*, called when the stage is dispatched."""
        ...


def _stage_profit(
    stage: StageModel,
    size: float,
    threads: int,
    marginal_value: float,
    core_cost: float,
) -> float:
    """Profit contribution of running one stage at *threads* threads.

    Benefit: latency saved vs. single-threaded, valued at the reward
    function's marginal rate.  Cost: core-time consumed (t cores for the
    threaded duration).
    """
    base = stage.execution_time(size)
    duration = stage.threaded_time(threads, size)
    return marginal_value * (base - duration) - core_cost * threads * duration


def _best_stage_threads(
    stage: StageModel,
    size: float,
    marginal_value: float,
    core_cost: float,
    choices: Sequence[int],
) -> int:
    # Hot path (called once per queued-task decision): compute the Amdahl
    # pieces inline, hoisting the base time out of the choice loop.
    base = stage.execution_time(size)
    c = stage.c
    serial_part = (1.0 - c) * base
    best_t, best_profit = choices[0], None
    for t in choices:
        duration = c * base / t + serial_part
        profit = marginal_value * (base - duration) - core_cost * t * duration
        if best_profit is None or profit > best_profit + 1e-12:
            best_t, best_profit = t, profit
    return best_t


def _stage_input(job: Job, stage: int) -> float:
    """Input size node *stage* will process.

    Chain jobs (and workflow nodes with unit scale) see ``job.input_gb``
    unchanged -- the same float object the legacy sizing used -- so this
    only diverges for DAG branches with a non-trivial input scale.
    """
    wf = job._workflow
    if wf is None:
        return job.input_gb
    return wf.node_input_gb(stage, job.input_gb)


def _optimise_plan(
    app: ApplicationModel,
    job: Job,
    ctx: AllocationContext,
    from_stage: int,
    sweeps: int = 2,
) -> ExecutionPlan:
    """Coordinate-descent plan optimisation over the job's remaining steps.

    The marginal value of saved time can depend on the plan itself (the
    throughput scheme values a TU more when the pipeline is fast), so we
    alternate: evaluate ETT under the current candidate plan, derive the
    marginal value there, re-pick each stage's threads, repeat.  Under a
    latency-free reward the value is fixed and one sweep is the answer.

    For chain jobs the remaining steps are ``from_stage..n-1``, exactly
    the legacy behaviour.  For DAG jobs completed nodes are sunk and every
    not-yet-done node is replanned, because parallel branches dispatch in
    an order the index gives no information about.
    """
    wf = job._workflow
    if wf is None or wf.is_chain:
        step_indices: Sequence[int] = range(from_stage, job.n_stages)
    else:
        step_indices = [
            i for i in range(job.n_stages) if not job.step_done(i)
        ]
    current = list(
        job.plan.threads if job.plan is not None else [1] * job.n_stages
    )
    core_cost = ctx.costs.marginal_core_cost(1)
    if is_latency_free(ctx.reward):
        # The value cannot depend on the plan, so a second sweep would
        # repeat the first one's inputs exactly.
        sweeps = 1
    for _ in range(max(sweeps, 1)):
        value = marginal_value_at_ett(
            ctx.reward, ctx.estimator, job, ctx.now, current
        )
        for stage_idx in step_indices:
            current[stage_idx] = _best_stage_threads(
                ctx.stage_model(job, stage_idx),
                _stage_input(job, stage_idx),
                value,
                core_cost,
                ctx.thread_choices,
            )
    return ExecutionPlan(tuple(current))


class GreedyAllocation:
    """Decide each stage's threads at dispatch time, myopically."""

    def on_submit(self, job: Job, ctx: AllocationContext) -> None:
        # No up-front plan; ETT estimation assumes 1 thread until each
        # stage actually starts.
        """Greedy plans nothing up front."""
        job.plan = None

    def threads_for_stage(self, job: Job, stage: int, ctx: AllocationContext) -> int:
        """Myopic best thread count at dispatch time."""
        value = marginal_value_at_ett(ctx.reward, ctx.estimator, job, ctx.now)
        core_cost = ctx.costs.marginal_core_cost(1)
        return _best_stage_threads(
            ctx.stage_model(job, stage),
            _stage_input(job, stage),
            value,
            core_cost,
            ctx.thread_choices,
        )


class LongTermAllocation:
    """Optimise the whole pipeline's plan once, at submission."""

    def on_submit(self, job: Job, ctx: AllocationContext) -> None:
        """Optimise and pin the whole-pipeline plan."""
        job.plan = _optimise_plan(job.app, job, ctx, from_stage=0)

    def threads_for_stage(self, job: Job, stage: int, ctx: AllocationContext) -> int:
        """The pinned plan's thread count for the stage."""
        if job.plan is None:
            raise SchedulingError(f"{job.name} reached dispatch without a plan")
        return job.plan.threads[stage]


class LongTermAdaptiveAllocation(LongTermAllocation):
    """Long-term planning, re-optimised at every stage boundary."""

    def threads_for_stage(self, job: Job, stage: int, ctx: AllocationContext) -> int:
        # Replan the remaining stages with current queue estimates; stages
        # already executed keep their historical values (they are sunk).
        """Re-optimise remaining stages, then answer."""
        job.plan = _optimise_plan(job.app, job, ctx, from_stage=stage)
        return job.plan.threads[stage]


class BestConstantAllocation:
    """Every job uses the same fixed plan (the paper's baseline)."""

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan

    def on_submit(self, job: Job, ctx: AllocationContext) -> None:
        """Attach the fixed offline plan to the job."""
        if len(self.plan.threads) != job.n_stages:
            raise SchedulingError(
                f"constant plan has {len(self.plan.threads)} stages; "
                f"{job.name} has {job.n_stages}"
            )
        job.plan = self.plan

    def threads_for_stage(self, job: Job, stage: int, ctx: AllocationContext) -> int:
        """The constant plan's thread count."""
        return self.plan.threads[stage]


def find_best_constant_plan(
    app: ApplicationModel,
    reward: RewardFunction,
    core_cost: float,
    job_size: float,
    thread_choices: Sequence[int] = (1, 2, 4, 8, 16),
    max_exhaustive: int = 1_000_000,
    input_gb: Optional[float] = None,
) -> ExecutionPlan:
    """Offline search for the profit-maximising constant plan.

    Evaluates plans analytically at the mean job size with no queueing:
    profit(plan) = R(sum_i T_i(t_i), d) - sum_i core_cost * t_i * T_i(t_i).
    Exhaustive over ``choices^stages`` when that is affordable (5^7 for
    GATK), falling back to coordinate descent otherwise.

    ``input_gb`` is the stage-model input size when it differs from the
    reward-side job size (see ``WorkloadConfig.size_unit_gb``).
    """
    choices = tuple(sorted(set(int(t) for t in thread_choices)))
    n = app.n_stages
    space = len(choices) ** n
    d_gb = input_gb if input_gb is not None else job_size

    def profit(threads: Sequence[int]) -> float:
        latency = 0.0
        cost = 0.0
        for stage, t in zip(app.stages, threads):
            duration = stage.threaded_time(t, d_gb)
            latency += duration
            cost += core_cost * t * duration
        return reward(latency, job_size) - cost

    if space <= max_exhaustive:
        best: Optional[tuple[int, ...]] = None
        best_profit = float("-inf")
        for combo in itertools.product(choices, repeat=n):
            p = profit(combo)
            if p > best_profit:
                best, best_profit = combo, p
        assert best is not None
        return ExecutionPlan(best)

    # Coordinate descent fallback for very deep pipelines.
    current = [choices[0]] * n
    improved = True
    while improved:
        improved = False
        for i in range(n):
            best_t, best_p = current[i], profit(current)
            for t in choices:
                if t == current[i]:
                    continue
                candidate = list(current)
                candidate[i] = t
                p = profit(candidate)
                if p > best_p + 1e-12:
                    best_t, best_p = t, p
                    improved = True
            current[i] = best_t
    return ExecutionPlan(tuple(current))


# Built-in registrations.  Every allocation factory takes the same keyword
# context (currently just ``constant_plan``) so the construction site needs
# no per-policy branching; out-of-tree factories follow the same shape.
@ALLOCATION_POLICIES.register("greedy")
def _make_greedy(constant_plan: Optional[ExecutionPlan] = None) -> AllocationPolicy:
    return GreedyAllocation()


@ALLOCATION_POLICIES.register("long_term")
def _make_long_term(constant_plan: Optional[ExecutionPlan] = None) -> AllocationPolicy:
    return LongTermAllocation()


@ALLOCATION_POLICIES.register("long_term_adaptive")
def _make_long_term_adaptive(
    constant_plan: Optional[ExecutionPlan] = None,
) -> AllocationPolicy:
    return LongTermAdaptiveAllocation()


@ALLOCATION_POLICIES.register("best_constant")
def _make_best_constant(
    constant_plan: Optional[ExecutionPlan] = None,
) -> AllocationPolicy:
    if constant_plan is None:
        raise SchedulingError(
            "best-constant allocation requires a plan; use "
            "find_best_constant_plan() first"
        )
    return BestConstantAllocation(constant_plan)


@ALLOCATION_POLICIES.register("learned")
def _make_learned(constant_plan: Optional[ExecutionPlan] = None) -> AllocationPolicy:
    from repro.scheduler.learning import LearnedAllocation

    return LearnedAllocation()


def make_allocation_policy(
    algorithm: "AllocationAlgorithm | str",
    constant_plan: Optional[ExecutionPlan] = None,
) -> AllocationPolicy:
    """Instantiate the policy named by *algorithm*.

    A thin :data:`ALLOCATION_POLICIES` lookup (enum or raw string key);
    unknown names raise :class:`ConfigurationError` listing what is
    registered.
    """
    return ALLOCATION_POLICIES.create(algorithm, constant_plan=constant_plan)
