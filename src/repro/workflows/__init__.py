"""Multi-application analysis workflows (the paper's Figure 1).

"Genome analysis normally encompasses a chain of various biological
applications" (Section I); SCAN is "an integrative application platform
which supports four types of data processes" (Section III) whose data flow
(Figure 1) fans NGS, proteomics and imaging branches into an integrative
network analysis.

- :mod:`repro.workflows.spec` -- workflow DAGs over registered
  applications, with format-compatibility and acyclicity validation.
- :mod:`repro.workflows.compiled` -- specs lowered into topologically
  indexed node graphs the scheduler/estimator/knowledge plane execute
  natively (chains are the degenerate case, kept byte-identical).  A
  workflow runs as one ``Job(..., workflow=wf)`` on one
  :class:`~repro.scheduler.scheduler.SCANScheduler`, which releases a
  step when its last parent completes and routes each node to its
  application's worker class.
- :mod:`repro.workflows.library` -- ready-made workflows: the Figure 1
  integrative flow, variant-detection and miRNA-fusion chains (the
  ontology's workflow individuals, made executable), plus the
  :data:`~repro.workflows.library.WORKFLOWS` registry of
  scheduler-runnable specs.
"""

from repro.workflows.compiled import CompiledWorkflow, WorkflowNode, chain_of, compile_spec
from repro.workflows.library import (
    WORKFLOWS,
    gatk_chain_workflow,
    integrative_figure1_workflow,
    make_workflow,
    mirna_fusion_workflow,
    star_fanout_workflow,
    variation_detection_workflow,
    workflow_names,
)
from repro.workflows.spec import WorkflowError, WorkflowSpec, WorkflowStep

__all__ = [
    "WorkflowSpec",
    "WorkflowStep",
    "WorkflowError",
    "CompiledWorkflow",
    "WorkflowNode",
    "chain_of",
    "compile_spec",
    "WORKFLOWS",
    "make_workflow",
    "workflow_names",
    "variation_detection_workflow",
    "mirna_fusion_workflow",
    "integrative_figure1_workflow",
    "gatk_chain_workflow",
    "star_fanout_workflow",
]
