"""Workflow DAG specifications.

A workflow is a DAG of named steps, each bound to a registered application.
Edges carry data: a step's input size is the sum of its parents' output
sizes (each parent's output = its input x the application's output ratio).
Validation enforces acyclicity and input/output format compatibility along
every edge ("we design the SCAN to work with standard formats to enable
interoperability", Section II-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.apps.registry import ApplicationRegistry, default_registry
from repro.core.errors import SCANError
from repro.genomics.datasets import DataFormat

__all__ = ["WorkflowError", "WorkflowStep", "WorkflowSpec"]


class WorkflowError(SCANError):
    """Invalid workflow structure or execution request."""


@dataclass(frozen=True)
class WorkflowStep:
    """One step: a named application invocation.

    ``output_ratio`` scales input GB to output GB (e.g. a variant caller
    reduces 10 GB of BAM to ~0.1 GB of VCF with ratio 0.01).
    """

    name: str
    app: str
    output_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowError("step name must be non-empty")
        if self.output_ratio <= 0:
            raise WorkflowError(f"step {self.name}: output_ratio must be positive")


class WorkflowSpec:
    """A validated DAG of workflow steps."""

    def __init__(
        self,
        name: str,
        steps: Iterable[WorkflowStep],
        edges: Iterable[tuple[str, str]],
        registry: Optional[ApplicationRegistry] = None,
    ) -> None:
        if not name:
            raise WorkflowError("workflow name must be non-empty")
        self.name = name
        self.registry = registry if registry is not None else default_registry()
        self.steps: dict[str, WorkflowStep] = {}
        for step in steps:
            if step.name in self.steps:
                raise WorkflowError(f"duplicate step {step.name!r}")
            if step.app not in self.registry:
                raise WorkflowError(
                    f"step {step.name!r} uses unregistered app {step.app!r}"
                )
            self.steps[step.name] = step
        if not self.steps:
            raise WorkflowError("a workflow needs at least one step")

        self._parents: dict[str, list[str]] = {n: [] for n in self.steps}
        self._children: dict[str, list[str]] = {n: [] for n in self.steps}
        for src, dst in edges:
            if src not in self.steps or dst not in self.steps:
                raise WorkflowError(f"edge ({src!r}, {dst!r}) references unknown step")
            if dst in self._children[src]:
                raise WorkflowError(f"duplicate edge ({src!r}, {dst!r})")
            self._children[src].append(dst)
            self._parents[dst].append(src)

        self._order = self._toposort()
        self._check_formats()

    # -- structure -----------------------------------------------------------
    def parents(self, step: str) -> list[str]:
        """Upstream step names of *step*."""
        return list(self._parents[step])

    def children(self, step: str) -> list[str]:
        """Downstream step names of *step*."""
        return list(self._children[step])

    @property
    def entry_steps(self) -> list[str]:
        """Steps with no parents: they consume the user's input datasets."""
        return [n for n in self._order if not self._parents[n]]

    @property
    def terminal_steps(self) -> list[str]:
        return [n for n in self._order if not self._children[n]]

    @property
    def topological_order(self) -> list[str]:
        return list(self._order)

    def app_of(self, step: str):
        """The ApplicationModel a step runs."""
        return self.registry.get(self.steps[step].app)

    def __len__(self) -> int:
        return len(self.steps)

    # -- validation -----------------------------------------------------------
    def _toposort(self) -> list[str]:
        in_degree = {n: len(p) for n, p in self._parents.items()}
        ready = sorted(n for n, d in in_degree.items() if d == 0)
        order: list[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in sorted(self._children[node]):
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(order) != len(self.steps):
            cyclic = sorted(set(self.steps) - set(order))
            raise WorkflowError(f"workflow has a cycle involving {cyclic}")
        return order

    def _check_formats(self) -> None:
        """Every edge must connect compatible formats.

        CSV is the interchange lingua franca: any producer may feed a
        CSV-consuming step (tabular summaries travel anywhere), matching
        how Cytoscape ingests arbitrary omics tables in Figure 1.  SAM and
        BAM are the same records in two encodings (the broker converts
        freely), so they inter-operate.
        """
        sam_bam = {DataFormat.SAM, DataFormat.BAM}
        for src, children in self._children.items():
            out_fmt = self.app_of(src).output_format
            for dst in children:
                in_fmt = self.app_of(dst).input_format
                if in_fmt is DataFormat.CSV:
                    continue
                if out_fmt in sam_bam and in_fmt in sam_bam:
                    continue
                if out_fmt is not in_fmt:
                    raise WorkflowError(
                        f"edge {src!r} -> {dst!r}: {self.steps[src].app} "
                        f"produces {out_fmt.value} but {self.steps[dst].app} "
                        f"consumes {in_fmt.value}"
                    )

    def __repr__(self) -> str:
        return (
            f"<WorkflowSpec {self.name}: "
            f"{' -> '.join(self._order)}>"
        )
