"""Learning-guided allocation (the paper's future work, Section VI).

"We also plan to adopt learning algorithms to guide the Scheduler."

:class:`LearnedAllocation` treats per-stage thread selection as a set of
independent multi-armed bandits -- one bandit per (stage, size-band), one
arm per thread count -- learning each arm's *realised* profit contribution
online instead of trusting the analytical model:

- reward signal: when a stage task finishes, its contribution is scored as
  ``marginal_value * (E_hat1 - duration) - core_cost * threads * duration``
  where ``E_hat1`` is the learned single-threaded duration for that band
  (so the benefit term needs no model at all once arm 1 has samples);
- exploration: epsilon-greedy with a decaying epsilon, seeded from a
  deterministic stream so simulations stay reproducible;
- cold start: until an arm has samples, its estimate comes from the
  analytical stage model, so the learner starts where the model-based
  policies start and then corrects drift (e.g. stages whose real
  scalability differs from the profiled c_i).

The policy plugs into the scheduler exactly like the Table I algorithms
(``on_submit`` / ``threads_for_stage``); its feedback arrives as a
:class:`~repro.core.bus.StageCompleted` bus subscription the scheduler
wires at construction (``observe_completion`` is the handler's target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.errors import SchedulingError
from repro.scheduler.allocation import AllocationContext
from repro.scheduler.estimator import marginal_value_at_ett
from repro.scheduler.tasks import Job

__all__ = ["ArmStats", "LearnedAllocation"]


@dataclass
class ArmStats:
    """Online statistics for one (stage, band, threads) arm."""

    pulls: int = 0
    mean_duration: float = 0.0

    def update(self, duration: float) -> None:
        """Fold one realised duration into the running mean."""
        self.pulls += 1
        self.mean_duration += (duration - self.mean_duration) / self.pulls


class LearnedAllocation:
    """Epsilon-greedy per-stage thread selection with online duration fits.

    Parameters
    ----------
    epsilon:
        Initial exploration rate; decays as ``epsilon / sqrt(1 + pulls)``
        per (stage, band) bandit.
    size_bands:
        Job sizes are bucketed into this many geometric bands so durations
        learned on small jobs are not applied to huge ones.
    seed:
        Exploration randomness (deterministic stream).
    """

    def __init__(
        self,
        epsilon: float = 0.15,
        size_bands: int = 4,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise SchedulingError("epsilon must lie in [0, 1]")
        if size_bands < 1:
            raise SchedulingError("size_bands must be >= 1")
        self.epsilon = epsilon
        self.size_bands = size_bands
        self._rng = np.random.Generator(np.random.PCG64(seed))
        #: arms[(stage, band, threads)] -> ArmStats
        self._arms: dict[tuple[int, int, int], ArmStats] = {}
        self._bandit_pulls: dict[tuple[int, int], int] = {}
        self.decisions = 0
        self.explorations = 0

    # -- AllocationPolicy interface ----------------------------------------
    def on_submit(self, job: Job, ctx: AllocationContext) -> None:
        """Bandit decisions happen per stage, like greedy."""
        job.plan = None  # decisions happen per stage, like greedy

    def threads_for_stage(self, job: Job, stage: int, ctx: AllocationContext) -> int:
        """Epsilon-greedy pick over learned arm profits."""
        band = self._band(job.input_gb)
        key = (stage, band)
        pulls = self._bandit_pulls.get(key, 0)
        self.decisions += 1

        eps = self.epsilon / math.sqrt(1.0 + pulls)
        if self._rng.random() < eps:
            self.explorations += 1
            return int(self._rng.choice(ctx.thread_choices))

        value = marginal_value_at_ett(ctx.reward, ctx.estimator, job, ctx.now)
        core_cost = ctx.costs.marginal_core_cost(1)
        base = self._duration_estimate(job, stage, band, 1, ctx)

        best_t, best_profit = ctx.thread_choices[0], None
        for t in ctx.thread_choices:
            duration = self._duration_estimate(job, stage, band, t, ctx)
            profit = value * (base - duration) - core_cost * t * duration
            if best_profit is None or profit > best_profit + 1e-12:
                best_t, best_profit = t, profit
        return best_t

    # -- feedback -----------------------------------------------------------
    def observe_completion(
        self, job: Job, stage: int, threads: int, duration: float
    ) -> None:
        """Feed one realised stage duration back into the bandit."""
        if duration < 0:
            raise SchedulingError(f"negative duration {duration}")
        band = self._band(job.input_gb)
        arm = self._arms.setdefault((stage, band, threads), ArmStats())
        arm.update(duration)
        key = (stage, band)
        self._bandit_pulls[key] = self._bandit_pulls.get(key, 0) + 1

    # -- internals ------------------------------------------------------------
    def _band(self, input_gb: float) -> int:
        """Geometric size bands: [0,2), [2,4), [4,8), [8,inf) for 4 bands."""
        if input_gb <= 0:
            return 0
        band = int(math.floor(math.log2(max(input_gb, 1e-9) / 2.0))) + 1
        return min(max(band, 0), self.size_bands - 1)

    def _duration_estimate(
        self,
        job: Job,
        stage: int,
        band: int,
        threads: int,
        ctx: AllocationContext,
    ) -> float:
        arm = self._arms.get((stage, band, threads))
        if arm is not None and arm.pulls > 0:
            return arm.mean_duration
        # Cold start: the knowledge plane's current prior, through the
        # estimator's memoised EET path (with the static provider this is
        # the analytical stage model's exact floats).
        return ctx.estimator.eet(stage, job.input_gb, threads)
