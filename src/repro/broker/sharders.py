"""Data sharders: fragment datasets into parallelisable chunks.

"The SCAN is equipped with Data Sharders for each type of genomic data,
such as FASTQ and BAM files.  They can, for example, divide a 100GB FASTQ
file into 25 4GB files, and create 25 data analysis subtasks" (paper
Section III-A.1.iii).

Two levels are provided:

- **descriptor sharding** (:func:`shard_descriptor`): splits a logical
  :class:`~repro.genomics.datasets.DatasetDescriptor` by size -- what the
  simulation and platform facade use;
- **record sharding** (``shard_*_records``): splits concrete in-memory
  data -- FASTQ reads, SAM records, BAM compression blocks (without
  decompressing!), VCF records, MGF spectra -- what the runnable examples
  use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TypeVar

from repro.core.errors import BrokerError
from repro.core.plugins import Registry
from repro.genomics.datasets import DataFormat, DatasetDescriptor
from repro.genomics.formats.bam import assemble_bam, read_bam_blocks
from repro.genomics.formats.fastq import FastqRecord
from repro.genomics.formats.mgf import MgfSpectrum
from repro.genomics.formats.sam import SamHeader, SamRecord
from repro.genomics.formats.vcf import VcfRecord

__all__ = [
    "ShardPlan",
    "SHARDERS",
    "shard_descriptor",
    "shard_records",
    "shard_fastq_records",
    "shard_sam_records",
    "shard_bam_bytes",
    "shard_vcf_records",
    "shard_mgf_spectra",
    "split_counts",
]

T = TypeVar("T")

#: Plugin registry of record-level sharders, keyed by data-format name.
#: Each entry is a callable ``(payload..., n_shards) -> list-of-shards``;
#: new genomic formats register theirs here (see ``repro.core.plugins``).
SHARDERS: "Registry[list]" = Registry("sharder")


def shard_records(fmt: "DataFormat | str", *args, **kwargs) -> list:
    """Dispatch record-level sharding through the :data:`SHARDERS` registry.

    ``fmt`` is a :class:`DataFormat` or its string value; the remaining
    arguments are handed to the registered sharder unchanged.  Unknown
    formats raise :class:`~repro.core.errors.ConfigurationError` listing
    the registered ones.
    """
    return SHARDERS.create(fmt, *args, **kwargs)


@dataclass(frozen=True)
class ShardPlan:
    """The outcome of sharding one dataset."""

    parent: DatasetDescriptor
    shards: tuple[DatasetDescriptor, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def total_size_gb(self) -> float:
        """Sum of shard sizes (equals the parent size)."""
        return sum(s.size_gb for s in self.shards)


def split_counts(total: int, parts: int) -> list[int]:
    """Split *total* items into *parts* near-equal positive counts.

    The first ``total % parts`` shards get one extra item; every shard is
    non-empty (requires ``parts <= total``).
    """
    if parts < 1:
        raise BrokerError(f"parts must be >= 1, got {parts}")
    if total < parts:
        raise BrokerError(f"cannot split {total} records into {parts} non-empty shards")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def shard_descriptor(
    dataset: DatasetDescriptor, shard_gb: float, max_shards: int = 100_000
) -> ShardPlan:
    """Split a logical dataset into ~``shard_gb`` pieces.

    Sizes and record counts are conserved exactly: the shards partition the
    parent.  Formats that cannot be split record-wise raise
    :class:`BrokerError`.
    """
    if not dataset.format.shardable:
        raise BrokerError(f"format {dataset.format.value} is not shardable")
    if shard_gb <= 0:
        raise BrokerError(f"shard_gb must be positive, got {shard_gb}")
    if dataset.is_shard:
        raise BrokerError("sharding a shard is not supported; shard the parent")
    n = max(math.ceil(dataset.size_gb / shard_gb - 1e-9), 1)
    if n > max_shards:
        raise BrokerError(
            f"{dataset.name} would need {n} shards (max {max_shards})"
        )
    n = min(n, max(dataset.records, 1))
    record_counts = split_counts(max(dataset.records, n), n)
    shards = []
    assigned_gb = 0.0
    for i, records in enumerate(record_counts):
        if i == n - 1:
            size = dataset.size_gb - assigned_gb
        else:
            size = dataset.size_gb * records / max(dataset.records, 1)
            assigned_gb += size
        shards.append(dataset.shard(i, size_gb=size, records=records))
    return ShardPlan(parent=dataset, shards=tuple(shards))


def _shard_list(items: Sequence[T], n_shards: int) -> list[list[T]]:
    counts = split_counts(len(items), n_shards)
    out: list[list[T]] = []
    pos = 0
    for count in counts:
        out.append(list(items[pos : pos + count]))
        pos += count
    return out


@SHARDERS.register("fastq")
def shard_fastq_records(
    reads: Sequence[FastqRecord], n_shards: int
) -> list[list[FastqRecord]]:
    """Partition reads into *n_shards* contiguous chunks."""
    return _shard_list(reads, n_shards)


@SHARDERS.register("sam")
def shard_sam_records(
    header: SamHeader, records: Sequence[SamRecord], n_shards: int
) -> list[tuple[SamHeader, list[SamRecord]]]:
    """Partition SAM records; every shard carries the full header.

    (Each subtask needs the reference dictionary, exactly as real sharded
    BAM processing duplicates the header per shard.)
    """
    return [(header, chunk) for chunk in _shard_list(records, n_shards)]


@SHARDERS.register("bam")
def shard_bam_bytes(data: bytes, n_shards: int) -> list[bytes]:
    """Split a BAM container at compression-block boundaries.

    No record decompression happens: whole compressed blocks move into the
    children, which is what makes broker-side BAM sharding cheap.  Shard
    record counts follow the block table, so they are near-equal when the
    writer used uniform block sizes.
    """
    header, blocks = read_bam_blocks(data)
    if n_shards < 1:
        raise BrokerError("n_shards must be >= 1")
    if len(blocks) < n_shards:
        raise BrokerError(
            f"container has {len(blocks)} blocks; cannot make {n_shards} "
            "non-empty shards"
        )
    counts = split_counts(len(blocks), n_shards)
    out: list[bytes] = []
    pos = 0
    for count in counts:
        out.append(assemble_bam(header, blocks[pos : pos + count]))
        pos += count
    return out


@SHARDERS.register("vcf")
def shard_vcf_records(
    records: Sequence[VcfRecord], n_shards: int
) -> list[list[VcfRecord]]:
    """Partition variant records into contiguous chunks."""
    return _shard_list(records, n_shards)


@SHARDERS.register("mgf")
def shard_mgf_spectra(
    spectra: Sequence[MgfSpectrum], n_shards: int
) -> list[list[MgfSpectrum]]:
    """Partition spectra into contiguous chunks."""
    return _shard_list(spectra, n_shards)
