"""The Data Broker.

"The Data Broker is designed to fragment or merge large sets of input data
for massive analytic tasks so that the SCAN can parallelize genome
analysis ... The data broker has two key components: an application
knowledge base to guide data preparation of each task, and data sharders
to fragment various genomics data into suitable chunks" (paper Section
III-A.1).

- :mod:`repro.broker.sharders` -- format-specific sharders over both
  logical dataset descriptors and concrete in-memory records (FASTQ reads,
  BAM blocks, SAM/VCF records, MGF spectra).
- :mod:`repro.broker.merger` -- the inverse: merge shard outputs (e.g. the
  VariantsToVCF merge of per-shard VCFs).
- :mod:`repro.broker.staging` -- prefetch shard files into the shared
  filesystem ahead of need ("upload required genome reference files just
  before they are needed").
- :mod:`repro.broker.broker` -- :class:`DataBroker`: queries the knowledge
  base for shard sizes and drives the sharders.
"""

from repro.broker.sharders import (
    ShardPlan,
    shard_descriptor,
    shard_fastq_records,
    shard_sam_records,
    shard_bam_bytes,
    shard_vcf_records,
    shard_mgf_spectra,
)
from repro.broker.merger import (
    merge_descriptors,
    merge_vcf_outputs,
    merge_sam_outputs,
    concatenate_fastq,
)
from repro.broker.staging import DataStager
from repro.broker.broker import DataBroker

__all__ = [
    "ShardPlan",
    "shard_descriptor",
    "shard_fastq_records",
    "shard_sam_records",
    "shard_bam_bytes",
    "shard_vcf_records",
    "shard_mgf_spectra",
    "merge_descriptors",
    "merge_vcf_outputs",
    "merge_sam_outputs",
    "concatenate_fastq",
    "DataStager",
    "DataBroker",
]
