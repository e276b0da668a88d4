"""Bio-application models.

The paper's platform hosts a tool chest -- "Burroughs-Wheeler Aligner (BWA)
for gene alignment, GATK for gene variations detection, the Global Proteome
Machine ... MaxQuant, CellProfiler for cell image analyses, and Cytoscape
for omic data integration" (Section III).  Each tool is modelled two ways:

1. **Analytical model** (:class:`~repro.apps.base.ApplicationModel`): the
   per-stage linear execution-time model ``E_i(d) = a_i d + b_i`` with
   Amdahl threading ``T_i(t, d)`` that the paper's simulation uses.  The
   GATK model carries the exact Table II coefficients.
2. **Executable miniature** (where meaningful): a from-scratch functional
   implementation over the synthetic genomics substrate -- a seed-and-extend
   aligner (:mod:`repro.apps.bwa`), a pileup variant caller
   (:mod:`repro.apps.gatk`), a somatic caller (:mod:`repro.apps.mutect`) --
   so the examples can run a real end-to-end analysis.
"""

from repro.apps.base import StageModel, ApplicationModel, ExecutionPlan
from repro.apps.gatk import (
    GATK_STAGES,
    build_gatk_model,
    PileupVariantCaller,
)
from repro.apps.bwa import build_bwa_model, SeedAndExtendAligner
from repro.apps.mutect import build_mutect_model, SomaticCaller
from repro.apps.maxquant import build_maxquant_model
from repro.apps.cellprofiler import build_cellprofiler_model
from repro.apps.cytoscape import build_cytoscape_model, NetworkIntegrator
from repro.apps.registry import ApplicationRegistry, default_registry

__all__ = [
    "StageModel",
    "ApplicationModel",
    "ExecutionPlan",
    "GATK_STAGES",
    "build_gatk_model",
    "PileupVariantCaller",
    "build_bwa_model",
    "SeedAndExtendAligner",
    "build_mutect_model",
    "SomaticCaller",
    "build_maxquant_model",
    "build_cellprofiler_model",
    "build_cytoscape_model",
    "NetworkIntegrator",
    "ApplicationRegistry",
    "default_registry",
]
