"""Logical dataset descriptors.

The SCAN simulation moves datasets that would be 100 MB - 500 GB in the real
system.  A :class:`DatasetDescriptor` carries everything the Data Broker and
Scheduler actually use -- format, size, record count, lineage -- without
materialising content.  Concrete record-level data (for the examples and
format tests) lives in :mod:`repro.genomics.formats`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["DataFormat", "DatasetDescriptor"]


class DataFormat(str, enum.Enum):
    """File formats known to the platform (paper Figures 1-2)."""

    FASTQ = "fastq"
    FASTA = "fasta"
    SAM = "sam"
    BAM = "bam"
    VCF = "vcf"
    MGF = "mgf"
    TIFF = "tiff"
    CSV = "csv"

    @property
    def shardable(self) -> bool:
        """Whether the format can be split record-wise for parallelism.

        Reference FASTA is not sharded (every task needs the whole
        reference); image data is sharded per file elsewhere.  CSV tables
        split and concatenate by row (a DAG whose terminal is Cytoscape
        merges its per-shard CSV outputs).
        """
        return self in (
            DataFormat.FASTQ,
            DataFormat.SAM,
            DataFormat.BAM,
            DataFormat.VCF,
            DataFormat.MGF,
            DataFormat.CSV,
        )

    @property
    def mergeable(self) -> bool:
        """Whether shard outputs in this format can be concatenated back."""
        return self.shardable

    @property
    def bytes_per_record(self) -> float:
        """Rough on-disk record size used to convert GB <-> records."""
        return {
            DataFormat.FASTQ: 250.0,  # 100 bp read: 4 lines
            DataFormat.FASTA: 80.0,
            DataFormat.SAM: 350.0,
            DataFormat.BAM: 110.0,  # compressed
            DataFormat.VCF: 120.0,
            DataFormat.MGF: 2_000.0,  # one spectrum
            DataFormat.TIFF: 8_000_000.0,  # one image
            DataFormat.CSV: 100.0,
        }[self]


_dataset_ids = itertools.count(1)


@dataclass(frozen=True)
class DatasetDescriptor:
    """A logical dataset: what the broker shards and the scheduler sizes.

    ``size_gb`` is the paper's job-size notion (Table III's "job size
    (arbitrary units)" maps 1 unit ~ 1 GB of input); ``records`` is the
    scheduler's task-size notion ("the number of records of input data
    supplied").
    """

    name: str
    format: DataFormat
    size_gb: float
    records: int
    #: Logical path in the shared filesystem (paper Figure 2 shows
    #: /input/fasta/s1.fa style paths).
    path: str = ""
    #: Parent dataset name if this is a shard.
    parent: Optional[str] = None
    #: Shard index within the parent (0-based), if a shard.
    shard_index: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_dataset_ids))

    def __post_init__(self) -> None:
        if self.size_gb < 0:
            raise ValueError(f"negative size_gb {self.size_gb}")
        if self.records < 0:
            raise ValueError(f"negative record count {self.records}")
        if not self.path:
            object.__setattr__(
                self, "path", f"/input/{self.format.value}/{self.name}.{self.format.value}"
            )

    @classmethod
    def from_size(
        cls,
        name: str,
        format: DataFormat,
        size_gb: float,
        path: str = "",
    ) -> "DatasetDescriptor":
        """Build a descriptor, deriving the record count from the size."""
        records = int(round(size_gb * 1e9 / format.bytes_per_record))
        return cls(name=name, format=format, size_gb=size_gb, records=records, path=path)

    @property
    def is_shard(self) -> bool:
        return self.parent is not None

    def shard(self, index: int, size_gb: float, records: int) -> "DatasetDescriptor":
        """Create the *index*-th shard descriptor of this dataset."""
        if self.is_shard:
            raise ValueError("sharding a shard is not supported; shard the parent")
        return replace(
            self,
            name=f"{self.name}.shard{index:04d}",
            size_gb=size_gb,
            records=records,
            path=f"{self.path}.shard{index:04d}",
            parent=self.name,
            shard_index=index,
            uid=next(_dataset_ids),
        )

    def derive(self, format: DataFormat, name_suffix: str, size_ratio: float = 1.0) -> "DatasetDescriptor":
        """A downstream dataset produced from this one (e.g. BAM -> VCF)."""
        if size_ratio <= 0:
            raise ValueError("size_ratio must be positive")
        size_gb = self.size_gb * size_ratio
        records = int(round(size_gb * 1e9 / format.bytes_per_record))
        return DatasetDescriptor(
            name=f"{self.name}.{name_suffix}",
            format=format,
            size_gb=size_gb,
            records=records,
            parent=self.parent,
            shard_index=self.shard_index,
        )

    def __str__(self) -> str:
        return f"{self.path} ({self.size_gb:.2f} GB, {self.records} records)"
