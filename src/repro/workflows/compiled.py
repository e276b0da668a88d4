"""Compiled workflows: the scheduler's executable DAG form.

A :class:`~repro.workflows.spec.WorkflowSpec` is a *declarative* DAG of
named steps over registered applications.  The scheduler, estimator, and
knowledge plane need something lower-level: a flat, topologically indexed
graph of *schedulable stage executions* -- one node per (step, app-stage)
pair -- with believed and ground-truth performance models, parent/child
dependency lists, and per-node input sizing resolved ahead of time.

:class:`CompiledWorkflow` is that form.  Two constructors produce it:

- :func:`chain_of` lowers a plain :class:`ApplicationModel` into a linear
  chain -- node ``i`` is stage ``i`` of the app, scoped under the app's
  own name.  This is the seed platform's 7-stage GATK pipeline expressed
  in DAG terms, and it is the byte-equivalence anchor: every fast path in
  the scheduler/estimator keys off :attr:`CompiledWorkflow.is_chain` and
  reuses the exact legacy arithmetic (same ``StageModel`` objects, same
  input sizes), so fault-free chain runs stay bit-identical.  It is also
  how a plain application reaches the knowledge plane: both estimate
  providers (``static``, ``adaptive``) are built over a compiled
  workflow, and a chain session hands them ``chain_of(app)``.
- :func:`compile_spec` lowers a multi-step spec: each step's application
  expands into an intra-chain of its stages (a 7-stage app contributes 7
  nodes), stitched together by the spec's edges (last node of the parent
  step feeds the first node of each child step).

Per-node **fact scope**: knowledge-plane facts for DAG nodes are keyed
``("{workflow}/{step}", app_stage)`` rather than ``(app, stage)``, so two
branches running the same tool refit independently.  Chains keep the
legacy ``(app.name, stage)`` key.

Per-node **input scale**: the paper's timing model feeds every stage of an
application the *first* stage's input ``d``, so all nodes of one step
share the step's input scale.  Entry steps see the job's input unscaled;
a downstream step's scale is the sum over its parents of
``parent_scale * parent_output_ratio``, so a fan-in step reads the sum
of its parents' outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

from repro.apps.base import ApplicationModel, StageModel
from repro.workflows.spec import WorkflowError, WorkflowSpec

__all__ = [
    "WorkflowNode",
    "CompiledWorkflow",
    "chain_of",
    "compile_spec",
]


@dataclass(frozen=True)
class WorkflowNode:
    """One schedulable stage execution inside a compiled workflow."""

    #: Topological index in the compiled graph (queue/plan/EQT slot).
    index: int
    #: Human-readable identity, e.g. ``"call:haplotype_caller"``.
    name: str
    #: Knowledge-plane fact scope (chains: the app name; spec workflows:
    #: ``"{workflow}/{step}"`` so branches refit independently).
    scope: str
    #: Application this node belongs to, and the stage index within it.
    app_name: str
    app_stage: int
    #: Believed (profiled) performance model -- what planning uses.
    model: StageModel
    #: Ground-truth model -- what execution draws durations from.
    actual: StageModel
    parents: tuple[int, ...]
    children: tuple[int, ...]
    #: Node input GB = job input GB x this scale (1.0 on every chain node).
    input_scale: float
    worker_class: str


class CompiledWorkflow:
    """A topologically indexed DAG of stage executions.

    Nodes are ordered so that every edge points from a lower to a higher
    index -- reverse iteration is a valid reverse-topological sweep, which
    the estimator's critical-path DP relies on.
    """

    def __init__(
        self,
        name: str,
        nodes: tuple[WorkflowNode, ...],
        spec: Optional[WorkflowSpec] = None,
    ) -> None:
        if not nodes:
            raise WorkflowError(f"workflow {name!r} compiled to zero nodes")
        for i, node in enumerate(nodes):
            if node.index != i:
                raise WorkflowError(
                    f"workflow {name!r}: node {node.name} has index "
                    f"{node.index}, expected {i}"
                )
            if any(p >= i for p in node.parents):
                raise WorkflowError(
                    f"workflow {name!r}: node {node.name} has a parent at "
                    f"or after its own index (not topologically sorted)"
                )
        self.name = name
        self.nodes = nodes
        self.spec = spec
        self.entries: tuple[int, ...] = tuple(
            n.index for n in nodes if not n.parents
        )
        self.terminals: tuple[int, ...] = tuple(
            n.index for n in nodes if not n.children
        )
        #: True when the graph is a plain pipeline with unscaled input --
        #: the legacy fast paths (forward-sum ETT, single-child release)
        #: apply and keep chain runs byte-identical to the pre-DAG code.
        self.is_chain = all(
            n.parents == ((i - 1,) if i else ())
            and n.input_scale == 1.0
            for i, n in enumerate(nodes)
        )
        #: ``(index, children, parents, input_scale)`` per node, highest
        #: index first: the estimator's critical-path sweep order, built
        #: once here instead of on every ETT call.
        self.reverse_sweep: tuple[
            tuple[int, tuple[int, ...], tuple[int, ...], float], ...
        ] = tuple(
            (n.index, n.children, n.parents, n.input_scale)
            for n in reversed(nodes)
        )

    # -- structure -----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node(self, index: int) -> WorkflowNode:
        return self.nodes[index]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node_input_gb(self, index: int, job_input_gb: float) -> float:
        """The input GB node *index* sees for a job-level input size.

        Chain nodes pass the job input through untouched (same float
        object -- the EET memo keys and Amdahl arithmetic stay identical
        to the pre-DAG scheduler).
        """
        scale = self.nodes[index].input_scale
        if scale == 1.0:
            return job_input_gb
        return job_input_gb * scale

    def max_ram_gb(self) -> float:
        return max(n.model.ram_gb for n in self.nodes)

    # -- derived views --------------------------------------------------------
    def as_app(self) -> ApplicationModel:
        """The workflow flattened into a pseudo-application.

        Used where legacy planning code wants an ``ApplicationModel``
        (e.g. best-constant plan search): stage ``i`` of the pseudo-app is
        node ``i``'s believed model, reindexed.  Formats come from the
        first entry node's app input and the last terminal node's output.
        """
        stages = tuple(
            replace(n.model, index=i, name=n.name)
            for i, n in enumerate(self.nodes)
        )
        first = self.nodes[self.entries[0]]
        last = self.nodes[self.terminals[-1]]
        from repro.apps.registry import default_registry

        registry = default_registry()
        return ApplicationModel(
            name=self.name,
            stages=stages,
            input_format=registry.get(first.app_name).input_format,
            output_format=registry.get(last.app_name).output_format,
            worker_class=first.worker_class,
            description=f"compiled workflow {self.name}",
        )

    def describe(self) -> dict:
        """A JSON-friendly summary (the ``scan-sim workflows`` listing)."""
        return {
            "name": self.name,
            "nodes": self.n_nodes,
            "entries": [self.nodes[i].name for i in self.entries],
            "terminals": [self.nodes[i].name for i in self.terminals],
            "chain": self.is_chain,
            "steps": [
                {
                    "node": n.index,
                    "name": n.name,
                    "app": n.app_name,
                    "scope": n.scope,
                    "parents": list(n.parents),
                    "input_scale": n.input_scale,
                }
                for n in self.nodes
            ],
        }

    def __repr__(self) -> str:
        shape = "chain" if self.is_chain else "dag"
        return f"<CompiledWorkflow {self.name}: {self.n_nodes} nodes, {shape}>"


@lru_cache(maxsize=128)
def chain_of(
    app: ApplicationModel, actual_app: Optional[ApplicationModel] = None
) -> "CompiledWorkflow":
    """The linear chain workflow equivalent to running *app* end to end.

    Node ``i`` wraps ``app.stage(i)`` (and ``actual_app.stage(i)`` as
    ground truth, for model-drift scenarios), scoped under the app's own
    name so knowledge facts keep their legacy ``(app, stage)`` keys.
    Cached: every job of the same app shares one compiled object.
    """
    actual = actual_app if actual_app is not None else app
    if actual.n_stages != app.n_stages:
        raise WorkflowError(
            f"actual app has {actual.n_stages} stages, believed has "
            f"{app.n_stages}"
        )
    n = app.n_stages
    nodes = tuple(
        WorkflowNode(
            index=i,
            name=app.stage(i).name,
            scope=app.name,
            app_name=app.name,
            app_stage=i,
            model=app.stage(i),
            actual=actual.stage(i),
            parents=(i - 1,) if i else (),
            children=(i + 1,) if i < n - 1 else (),
            input_scale=1.0,
            worker_class=app.worker_class,
        )
        for i in range(n)
    )
    return CompiledWorkflow(app.name, nodes)


def compile_spec(
    spec: WorkflowSpec,
    resolve: Optional[
        Callable[[str], tuple[ApplicationModel, ApplicationModel]]
    ] = None,
) -> CompiledWorkflow:
    """Lower a declarative spec into a scheduler-ready node graph.

    *resolve* maps an application name to a ``(believed, actual)`` model
    pair -- the builder passes a drift-aware resolver; the default reads
    the spec's own registry with believed == actual.

    Expansion: each step contributes one node per stage of its
    application, chained internally; the spec's step edges connect the
    last node of the parent step to the first node of each child step.
    All nodes of one step share the step's input scale (the paper feeds
    every stage of an application the first stage's input ``d``).
    """
    if resolve is None:
        def resolve(app_name: str):  # noqa: ANN001 - local default
            model = spec.registry.get(app_name)
            return model, model

    # Step input scales, in spec topological order: every entry step
    # reads the job's input (1.0); any other step the sum of its parents'
    # outputs.
    scales: dict[str, float] = {}
    for step_name in spec.topological_order:
        parents = spec.parents(step_name)
        if not parents:
            scales[step_name] = 1.0
        else:
            scales[step_name] = sum(
                scales[p] * spec.steps[p].output_ratio for p in parents
            )

    nodes: list[WorkflowNode] = []
    first_node: dict[str, int] = {}
    last_node: dict[str, int] = {}
    for step_name in spec.topological_order:
        step = spec.steps[step_name]
        believed, actual = resolve(step.app)
        if actual.n_stages != believed.n_stages:
            raise WorkflowError(
                f"step {step_name!r}: actual app has {actual.n_stages} "
                f"stages, believed has {believed.n_stages}"
            )
        scope = f"{spec.name}/{step_name}"
        first_node[step_name] = len(nodes)
        for s in range(believed.n_stages):
            index = len(nodes)
            intra_parents = (index - 1,) if s else ()
            nodes.append(
                WorkflowNode(
                    index=index,
                    name=f"{step_name}:{believed.stage(s).name}",
                    scope=scope,
                    app_name=step.app,
                    app_stage=s,
                    model=believed.stage(s),
                    actual=actual.stage(s),
                    parents=intra_parents,
                    children=(),
                    input_scale=scales[step_name],
                    worker_class=believed.worker_class,
                )
            )
        last_node[step_name] = len(nodes) - 1

    # Stitch step edges, then derive children from the final parent sets.
    parents: dict[int, list[int]] = {n.index: list(n.parents) for n in nodes}
    for step_name in spec.topological_order:
        for parent in spec.parents(step_name):
            parents[first_node[step_name]].append(last_node[parent])
    children: dict[int, list[int]] = {n.index: [] for n in nodes}
    for idx, ps in parents.items():
        for p in sorted(ps):
            children[p].append(idx)
    nodes = [
        replace(
            n,
            parents=tuple(sorted(parents[n.index])),
            children=tuple(sorted(children[n.index])),
        )
        for n in nodes
    ]
    return CompiledWorkflow(spec.name, tuple(nodes), spec=spec)
