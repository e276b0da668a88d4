"""MaxQuant: proteomics peptide identification and quantification.

Paper Section III lists MaxQuant among the platform's tools, and Figure 2
shows proteomics inputs (``/input/protein/m1.mgf``).  The analytical model
is a 3-stage pipeline over MGF spectra.
"""

from __future__ import annotations

from repro.apps.base import ApplicationModel, StageModel
from repro.genomics.datasets import DataFormat

__all__ = ["build_maxquant_model"]


def build_maxquant_model() -> ApplicationModel:
    """A 3-stage proteomics model: MGF spectra in, CSV identifications out."""
    stages = (
        StageModel(index=0, name="PeakDetection", a=0.50, b=2.0, c=0.80, ram_gb=8.0),
        StageModel(index=1, name="DatabaseSearch", a=2.40, b=6.0, c=0.92, ram_gb=16.0),
        StageModel(index=2, name="Quantification", a=0.30, b=1.5, c=0.40, ram_gb=4.0),
    )
    return ApplicationModel(
        name="maxquant",
        stages=stages,
        input_format=DataFormat.MGF,
        output_format=DataFormat.CSV,
        worker_class="maxquant",
        description="Proteomics search engine: MGF spectra in, peptide IDs out.",
    )
