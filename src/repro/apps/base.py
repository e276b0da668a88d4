"""Analytical application models: stages, timing, threading, plans.

The paper's execution-time model (Section IV.1)::

    E_i(d)    = a_i * d + b_i                      (single-threaded)
    T_i(t, d) = c_i * E_i(d) / t + (1 - c_i) * E_i(d)   (t threads)

``d`` is the size of the *first* stage's input (the job size, in GB-like
units); every later stage depends on the full output of its predecessor.
The degree of multithreading "must be chosen when the stage starts
execution, and cannot be adjusted thereafter, but can differ from pipeline
stage to stage" -- an :class:`ExecutionPlan` captures exactly that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.amdahl import amdahl_time
from repro.genomics.datasets import DataFormat

__all__ = ["StageModel", "ApplicationModel", "ExecutionPlan"]


@dataclass(frozen=True)
class StageModel:
    """One pipeline stage's performance model.

    ``a``/``b`` are the linear execution-time coefficients (Table II's
    a_i/b_i); ``c`` the parallelisable fraction (c_i); ``ram_gb`` the
    stage's memory footprint per the knowledge base.
    """

    index: int
    name: str
    a: float
    b: float
    c: float
    ram_gb: float = 4.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("stage index must be >= 0")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"stage {self.name}: c must lie in [0, 1], got {self.c}")
        if self.a < 0:
            raise ValueError(f"stage {self.name}: a must be >= 0, got {self.a}")

    def execution_time(self, d: float) -> float:
        """Single-threaded time E_i(d) = a_i d + b_i, floored at ~0.

        Table II includes a negative ``b`` (stage 2: -0.53); for very small
        inputs the raw line can dip below zero, so we clamp to a small
        positive epsilon -- a stage never takes negative time.
        """
        if d < 0:
            raise ValueError(f"negative input size {d}")
        return max(self.a * d + self.b, 1e-6)

    def threaded_time(self, threads: int, d: float) -> float:
        """T_i(t, d) per the paper's Amdahl split."""
        return amdahl_time(self.execution_time(d), threads, self.c)

    def speedup(self, threads: int) -> float:
        """Speedup of this stage at *threads* threads."""
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        return 1.0 / (self.c / threads + (1.0 - self.c))


@dataclass(frozen=True)
class ApplicationModel:
    """A multi-stage pipeline application.

    The GATK instance is "a particular 7-stage pipeline that is commonly
    used to diagnose genetic mutations"; other tools (BWA, MaxQuant, ...)
    have their own stage lists.
    """

    name: str
    stages: tuple[StageModel, ...]
    input_format: DataFormat
    output_format: DataFormat
    #: Worker class label: workers carry "a software stack suitable for a
    #: particular application" (Section III-A.3).
    worker_class: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError(f"{self.name}: at least one stage required")
        for i, stage in enumerate(self.stages):
            if stage.index != i:
                raise ValueError(
                    f"{self.name}: stage {stage.name} has index {stage.index}, "
                    f"expected {i}"
                )
        if not self.worker_class:
            object.__setattr__(self, "worker_class", self.name)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def stage(self, index: int) -> StageModel:
        """The stage model at *index*."""
        return self.stages[index]

    def core_stages(self, plan: "ExecutionPlan") -> int:
        """Total cores-across-stages for *plan* (Figure 5's x-axis)."""
        return sum(plan.threads)

    def max_ram_gb(self) -> float:
        """The largest per-stage memory footprint (GB)."""
        return max(s.ram_gb for s in self.stages)


@dataclass(frozen=True)
class ExecutionPlan:
    """Per-stage thread counts, fixed at stage start.

    The paper calls this the "execution plan"; the best-constant baseline
    uses one plan for every run.
    """

    threads: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.threads:
            raise ValueError("plan requires at least one stage")
        if any(t < 1 for t in self.threads):
            raise ValueError(f"thread counts must be >= 1: {self.threads}")

    @classmethod
    def uniform(cls, n_stages: int, threads: int = 1) -> "ExecutionPlan":
        return cls(tuple([threads] * n_stages))

    @property
    def total_cores(self) -> int:
        return sum(self.threads)

    def __iter__(self):
        return iter(self.threads)

    def __len__(self) -> int:
        return len(self.threads)
