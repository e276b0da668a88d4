"""Reward functions (paper Section II-D).

Two schemes, quoted from the paper:

Time-oriented:
    "users offer a reward proportional to input data size for completion of
    their whole analysis pipeline, with a constant penalty per unit time the
    work is delayed":  R(d, t) = d * (Rmax - t * Rpenalty).

Throughput-oriented:
    "users offer a reward ... inversely proportional to the duration of the
    complete pipeline execution":  R(d, t) = d * Rscale / t.

Both take the pipeline *latency* t (queue entry of the first stage ->
completion of the last) and the job size d (records / GB-units).  The
time-oriented reward may go negative for very late work -- Figure 4's y-axis
indeed shows negative mean profits under heavy load.

``marginal_value`` is the scheduling signal: the reward gained per TU of
latency removed, used by allocation (how many threads is a TU worth?) and
predictive scaling (what does delaying this queue cost?).  A reward whose
marginal value ignores latency declares ``latency_free = True``; the
time-oriented scheme does, so its decisions never need an ETT (Eq. 2).
"""

from __future__ import annotations

from typing import Protocol

from repro.core.config import RewardConfig
from repro.core.plugins import Registry

__all__ = [
    "RewardFunction",
    "TimeReward",
    "ThroughputReward",
    "REWARDS",
    "is_latency_free",
    "make_reward",
]

#: Plugin registry of reward-function families.  Each factory is called
#: with the :class:`RewardConfig` and returns a :class:`RewardFunction`;
#: out-of-tree schemes register here (see ``repro.core.plugins``).
REWARDS: "Registry[RewardFunction]" = Registry("reward")


class RewardFunction(Protocol):
    """Maps (latency, records) to CU, plus the latency sensitivity."""

    #: True when the reward is linear in latency, so ``marginal_value``
    #: does not depend on it and callers may price time without estimating
    #: it.  Eq. 1's closed form also takes the marginal value to be
    #: proportional to records, as in both paper schemes.  Undeclared
    #: means False.
    latency_free: bool

    def __call__(self, latency: float, records: float) -> float:
        """Reward for completing *records* of work in *latency* TUs."""
        ...

    def marginal_value(self, latency: float, records: float) -> float:
        """-dR/dlatency at the given point: CU gained per TU saved."""
        ...


class TimeReward:
    """R(d, t) = d (Rmax - t Rpenalty)."""

    latency_free = True

    def __init__(self, rmax: float = 400.0, rpenalty: float = 15.0) -> None:
        if rmax <= 0:
            raise ValueError(f"rmax must be positive, got {rmax}")
        if rpenalty < 0:
            raise ValueError(f"rpenalty must be >= 0, got {rpenalty}")
        self.rmax = rmax
        self.rpenalty = rpenalty

    def __call__(self, latency: float, records: float) -> float:
        if latency < 0 or records < 0:
            raise ValueError("latency and records must be >= 0")
        return records * (self.rmax - latency * self.rpenalty)

    def marginal_value(self, latency: float, records: float) -> float:
        # Linear scheme: every TU saved is worth the same.
        """CU gained per TU saved: d * Rpenalty (constant)."""
        return records * self.rpenalty

    def __repr__(self) -> str:
        return f"TimeReward(rmax={self.rmax}, rpenalty={self.rpenalty})"


class ThroughputReward:
    """R(d, t) = d Rscale / t."""

    #: Latencies below this are clamped: the physical pipeline can never be
    #: instantaneous, and 1/t explodes at 0.
    MIN_LATENCY = 1e-6

    latency_free = False

    def __init__(self, rscale: float = 15_000.0) -> None:
        if rscale <= 0:
            raise ValueError(f"rscale must be positive, got {rscale}")
        self.rscale = rscale

    def __call__(self, latency: float, records: float) -> float:
        if latency < 0 or records < 0:
            raise ValueError("latency and records must be >= 0")
        return records * self.rscale / max(latency, self.MIN_LATENCY)

    def marginal_value(self, latency: float, records: float) -> float:
        # dR/dt = -d Rscale / t^2; the scheme "rewards according to the
        # proportion of runtime that was eliminated", so saving a TU is
        # worth more when the pipeline is already fast.
        """CU gained per TU saved: d * Rscale / t^2."""
        t = max(latency, self.MIN_LATENCY)
        return records * self.rscale / (t * t)

    def __repr__(self) -> str:
        return f"ThroughputReward(rscale={self.rscale})"


def is_latency_free(reward: RewardFunction) -> bool:
    """Whether *reward*'s marginal value is the same at every latency."""
    return getattr(reward, "latency_free", False)


@REWARDS.register("time")
def _make_time_reward(config: RewardConfig) -> RewardFunction:
    return TimeReward(rmax=config.rmax, rpenalty=config.rpenalty)


@REWARDS.register("throughput")
def _make_throughput_reward(config: RewardConfig) -> RewardFunction:
    return ThroughputReward(rscale=config.rscale)


def make_reward(config: RewardConfig) -> RewardFunction:
    """Build the reward function described by *config*.

    A thin registry lookup: ``config.scheme`` (enum or raw string) names
    the :data:`REWARDS` entry; unknown schemes raise
    :class:`~repro.core.errors.ConfigurationError` listing what is
    registered.
    """
    return REWARDS.create(config.scheme, config)
