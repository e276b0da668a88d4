"""repro: a full reproduction of SCAN (ICPP 2015).

SCAN is a smart application platform for parallelizing big genomic data
analysis in clouds.  This package reimplements, from scratch, every system
the paper describes or depends on:

- :mod:`repro.desim` -- a discrete-event simulation kernel (the substrate the
  paper's evaluation runs on).
- :mod:`repro.ontology` -- an in-memory triple store, OWL-lite model and a
  SPARQL-subset query engine (the paper's Jena/Protege stack).
- :mod:`repro.knowledge` -- the SCAN application knowledge base: profiled
  performance facts, regression-fit updates from task logs, shard advice.
- :mod:`repro.genomics` -- genomic data formats (FASTA/FASTQ/SAM/VCF/MGF),
  parsers, writers and deterministic synthetic generators.
- :mod:`repro.apps` -- analytical bio-application models (the 7-stage GATK
  pipeline of Table II, BWA, MuTect, MaxQuant, CellProfiler, Cytoscape).
- :mod:`repro.broker` -- the Data Broker: format-aware sharders and mergers
  guided by the knowledge base.
- :mod:`repro.scheduler` -- the reward-driven SCAN Scheduler: queues, worker
  pools, reward/cost functions, ETT estimation, delay cost, allocation and
  horizontal-scaling algorithms.
- :mod:`repro.cloud` -- the simulated hybrid cloud: an N-tier stack with
  per-tier pricing, VM lifecycle with restart penalty, the CELAR Manager
  stand-in, storage.
- :mod:`repro.workload` -- the paper's batched stochastic workload generator.
- :mod:`repro.sim` -- the evaluation harness: sessions, sweeps, metrics and
  table/figure reporters for every table and figure in the paper.
- :mod:`repro.core` -- the SCANPlatform facade wiring it all together.
"""

from repro._version import __version__

__all__ = [
    "__version__",
    "SCANPlatform",
    "PlatformConfig",
    "SimulationConfig",
    "RewardConfig",
    "CloudConfig",
    "WorkloadConfig",
]

# Lazy attribute access (PEP 562): keeps ``import repro`` cheap and lets the
# subpackages be imported individually without pulling in the whole platform.
_LAZY = {
    "SCANPlatform": ("repro.core.platform", "SCANPlatform"),
    "PlatformConfig": ("repro.core.config", "PlatformConfig"),
    "SimulationConfig": ("repro.core.config", "SimulationConfig"),
    "RewardConfig": ("repro.core.config", "RewardConfig"),
    "CloudConfig": ("repro.core.config", "CloudConfig"),
    "WorkloadConfig": ("repro.core.config", "WorkloadConfig"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
