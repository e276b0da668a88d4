"""Performance profiles and regression fits.

"The knowledge-base is initially created by profiling some of the most
common genome applications ... we profiled GATK performance under different
hardware configurations and with different inputs.  The datasets include
genome inputs of different sizes, ranging from 1GByte to 9GBytes.  We can
then conclude that total execution time linearly increases with the input
file size and that different GATK analysis tools scale differently with
thread count" (paper Section III-A.1.i).

A :class:`StageProfile` accumulates (input size, threads, time)
observations for one pipeline stage and recovers the paper's a/b/c model:
``a``/``b`` by OLS over single-threaded runs, ``c`` by the Amdahl inverse
fit over multi-threaded runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.amdahl import amdahl_time, fit_parallel_fraction
from repro.analysis.regression import LinearFit, fit_linear
from repro.apps.base import StageModel
from repro.core.errors import KnowledgeBaseError

__all__ = ["ProfileObservation", "StageProfile", "ApplicationProfile"]


@dataclass(frozen=True)
class ProfileObservation:
    """One profiled run of one stage."""

    app: str
    stage: int
    input_gb: float
    threads: int
    execution_time: float
    cpu: int = 8
    ram_gb: float = 4.0

    def __post_init__(self) -> None:
        if self.input_gb < 0:
            raise ValueError("input_gb must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.execution_time < 0:
            raise ValueError("execution_time must be >= 0")


class StageProfile:
    """Observations and fitted model for one (application, stage)."""

    def __init__(self, app: str, stage: int) -> None:
        self.app = app
        self.stage = stage
        self._observations: list[ProfileObservation] = []
        self._fit_dirty = True
        self._linear: Optional[LinearFit] = None
        self._c: Optional[float] = None

    def add(self, obs: ProfileObservation) -> None:
        """Append one observation (invalidates cached fits)."""
        if obs.app != self.app or obs.stage != self.stage:
            raise KnowledgeBaseError(
                f"observation for ({obs.app}, {obs.stage}) added to "
                f"profile ({self.app}, {self.stage})"
            )
        self._observations.append(obs)
        self._fit_dirty = True

    def __len__(self) -> int:
        return len(self._observations)

    @property
    def observations(self) -> tuple[ProfileObservation, ...]:
        return tuple(self._observations)

    # -- fitting --------------------------------------------------------------
    def _refit(self) -> None:
        single = [o for o in self._observations if o.threads == 1]
        sizes = {o.input_gb for o in single}
        if len(single) >= 2 and len(sizes) >= 2:
            self._linear = fit_linear(
                [o.input_gb for o in single],
                [o.execution_time for o in single],
            )
        else:
            self._linear = None

        # Fit c from multi-threaded observations, normalising each to its
        # own single-threaded baseline prediction where available.
        multi = [o for o in self._observations if o.threads > 1]
        if multi and self._linear is not None:
            threads: list[int] = [1]
            times: list[float] = [1.0]  # normalised baseline point
            for o in multi:
                baseline = max(self._linear(o.input_gb), 1e-9)
                threads.append(o.threads)
                times.append(o.execution_time / baseline)
            try:
                self._c = fit_parallel_fraction(threads, times)
            except ValueError:
                self._c = None
        else:
            self._c = None
        self._fit_dirty = False

    @property
    def has_linear_fit(self) -> bool:
        if self._fit_dirty:
            self._refit()
        return self._linear is not None

    @property
    def linear_fit(self) -> LinearFit:
        if self._fit_dirty:
            self._refit()
        if self._linear is None:
            raise KnowledgeBaseError(
                f"profile ({self.app}, stage {self.stage}) lacks enough "
                "single-threaded observations for a linear fit"
            )
        return self._linear

    @property
    def parallel_fraction(self) -> Optional[float]:
        if self._fit_dirty:
            self._refit()
        return self._c

    def predict(self, input_gb: float, threads: int = 1) -> float:
        """Predicted execution time at *input_gb* and *threads*."""
        base = max(self.linear_fit(input_gb), 1e-6)
        c = self.parallel_fraction
        if threads == 1 or c is None:
            return base
        return amdahl_time(base, threads, c)

    def to_stage_model(self, name: str = "", ram_gb: float = 4.0) -> StageModel:
        """Export the fitted model as a :class:`StageModel`."""
        fit = self.linear_fit
        c = self.parallel_fraction
        return StageModel(
            index=self.stage,
            name=name or f"{self.app}-stage{self.stage}",
            a=max(fit.slope, 0.0),
            b=fit.intercept,
            c=c if c is not None else 0.0,
            ram_gb=ram_gb,
        )


class ApplicationProfile:
    """All stage profiles for one application."""

    def __init__(self, app: str) -> None:
        self.app = app
        self._stages: dict[int, StageProfile] = {}

    def stage(self, index: int) -> StageProfile:
        """The (created-on-demand) profile for one stage."""
        profile = self._stages.get(index)
        if profile is None:
            profile = StageProfile(self.app, index)
            self._stages[index] = profile
        return profile

    def add(self, obs: ProfileObservation) -> None:
        """Route an observation to its stage's profile."""
        if obs.app != self.app:
            raise KnowledgeBaseError(
                f"observation for {obs.app!r} added to profile {self.app!r}"
            )
        self.stage(obs.stage).add(obs)

    @property
    def stage_indices(self) -> list[int]:
        return sorted(self._stages)

    def __len__(self) -> int:
        return sum(len(p) for p in self._stages.values())
