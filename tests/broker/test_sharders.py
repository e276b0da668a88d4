"""Tests for the data sharders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.sharders import (
    shard_bam_bytes,
    shard_descriptor,
    shard_fastq_records,
    shard_mgf_spectra,
    shard_sam_records,
    shard_vcf_records,
    split_counts,
)
from repro.core.errors import BrokerError
from repro.genomics.datasets import DataFormat, DatasetDescriptor
from repro.genomics.formats.bam import read_bam, write_bam
from repro.genomics.formats.fastq import FastqRecord
from repro.genomics.formats.mgf import MgfSpectrum
from repro.genomics.formats.sam import Cigar, SamHeader, SamRecord
from repro.genomics.formats.vcf import VcfRecord


class TestSplitCounts:
    def test_even_split(self):
        assert split_counts(100, 4) == [25, 25, 25, 25]

    def test_remainder_goes_to_front(self):
        assert split_counts(10, 3) == [4, 3, 3]

    def test_all_shards_nonempty(self):
        assert split_counts(5, 5) == [1, 1, 1, 1, 1]
        with pytest.raises(BrokerError):
            split_counts(3, 5)

    def test_conservation(self):
        for total, parts in [(97, 8), (1000, 7), (13, 13)]:
            assert sum(split_counts(total, parts)) == total


class TestShardDescriptor:
    def test_paper_example_100gb_into_25(self):
        """'divide a 100GB FASTQ file into 25 4GB files, and create 25
        data analysis subtasks' (Section III-A.1.iii)."""
        dataset = DatasetDescriptor.from_size("wgs", DataFormat.FASTQ, 100.0)
        plan = shard_descriptor(dataset, shard_gb=4.0)
        assert plan.n_shards == 25
        for shard in plan:
            assert shard.size_gb == pytest.approx(4.0, rel=0.01)
            assert shard.parent == "wgs"

    def test_sizes_and_records_conserved(self):
        dataset = DatasetDescriptor.from_size("s", DataFormat.BAM, 17.3)
        plan = shard_descriptor(dataset, shard_gb=2.0)
        assert plan.total_size_gb() == pytest.approx(17.3)
        assert sum(s.records for s in plan.shards) == dataset.records

    def test_shard_indices_sequential(self):
        dataset = DatasetDescriptor.from_size("s", DataFormat.BAM, 10.0)
        plan = shard_descriptor(dataset, shard_gb=2.0)
        assert [s.shard_index for s in plan] == list(range(plan.n_shards))

    def test_small_dataset_single_shard(self):
        dataset = DatasetDescriptor.from_size("tiny", DataFormat.BAM, 1.0)
        plan = shard_descriptor(dataset, shard_gb=4.0)
        assert plan.n_shards == 1
        assert plan.shards[0].size_gb == pytest.approx(1.0)

    def test_unshardable_format_rejected(self):
        ref = DatasetDescriptor.from_size("ref", DataFormat.FASTA, 3.0)
        with pytest.raises(BrokerError):
            shard_descriptor(ref, 1.0)

    def test_sharding_a_shard_rejected(self):
        dataset = DatasetDescriptor.from_size("s", DataFormat.BAM, 10.0)
        shard = next(iter(shard_descriptor(dataset, 2.0)))
        with pytest.raises(BrokerError):
            shard_descriptor(shard, 1.0)

    def test_max_shards_enforced(self):
        dataset = DatasetDescriptor.from_size("s", DataFormat.BAM, 100.0)
        with pytest.raises(BrokerError):
            shard_descriptor(dataset, 0.1, max_shards=100)

    def test_bad_shard_size_rejected(self):
        dataset = DatasetDescriptor.from_size("s", DataFormat.BAM, 10.0)
        with pytest.raises(BrokerError):
            shard_descriptor(dataset, 0.0)


class TestRecordSharders:
    def test_fastq_partition(self):
        reads = [FastqRecord(f"r{i}", "ACGT", "IIII") for i in range(10)]
        shards = shard_fastq_records(reads, 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        flattened = [r for shard in shards for r in shard]
        assert flattened == reads

    def test_sam_shards_carry_header(self):
        header = SamHeader(references=[("chr1", 100)])
        records = [
            SamRecord(
                qname=f"r{i}", flag=0, rname="chr1", pos=i + 1, mapq=60,
                cigar=Cigar.parse("2M"), seq="AC", qual="II",
            )
            for i in range(6)
        ]
        shards = shard_sam_records(header, records, 2)
        assert len(shards) == 2
        for shard_header, shard_records in shards:
            assert shard_header.references == header.references
            assert len(shard_records) == 3

    def test_vcf_and_mgf_partition(self):
        vcfs = [VcfRecord("chr1", i + 1, "A", "T") for i in range(5)]
        assert sum(len(s) for s in shard_vcf_records(vcfs, 2)) == 5
        spectra = [
            MgfSpectrum(title=f"s{i}", pepmass=100.0, charge=2)
            for i in range(4)
        ]
        assert len(shard_mgf_spectra(spectra, 4)) == 4


class TestBamSharder:
    def make_bam(self, n_records=100, block_records=10):
        header = SamHeader(references=[("chr1", 100_000)])
        records = [
            SamRecord(
                qname=f"r{i}", flag=0, rname="chr1", pos=i + 1, mapq=60,
                cigar=Cigar.parse("4M"), seq="ACGT", qual="IIII",
            )
            for i in range(n_records)
        ]
        return write_bam(header, records, block_records=block_records), records

    def test_shards_partition_records(self):
        blob, records = self.make_bam()
        shards = shard_bam_bytes(blob, 4)
        assert len(shards) == 4
        recovered = []
        for shard in shards:
            _h, shard_records = read_bam(shard)
            recovered.extend(shard_records)
        assert recovered == records

    def test_shard_at_block_granularity(self):
        blob, _ = self.make_bam(n_records=100, block_records=10)
        shards = shard_bam_bytes(blob, 3)
        counts = [len(read_bam(s)[1]) for s in shards]
        # 10 blocks split 4/3/3 -> 40/30/30 records.
        assert counts == [40, 30, 30]

    def test_more_shards_than_blocks_rejected(self):
        blob, _ = self.make_bam(n_records=10, block_records=10)  # one block
        with pytest.raises(BrokerError):
            shard_bam_bytes(blob, 2)

    def test_headers_propagate(self):
        blob, _ = self.make_bam()
        for shard in shard_bam_bytes(blob, 2):
            header, _records = read_bam(shard)
            assert header.references == [("chr1", 100_000)]


# -- Hypothesis: split/merge round-trips for arbitrary sizes ------------------

# (n_records, n_shards) with 1 <= n_shards <= n_records, so every shard is
# non-empty -- the sharder's own precondition.
_sizes = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))
)


class TestShardingRoundTrips:
    """Splitting then concatenating must be lossless and order-preserving."""

    @settings(max_examples=80, deadline=None)
    @given(args=_sizes)
    def test_split_counts_partitions_exactly(self, args):
        total, parts = args
        counts = split_counts(total, parts)
        assert len(counts) == parts
        assert sum(counts) == total
        assert min(counts) >= 1
        assert max(counts) - min(counts) <= 1
        assert counts == sorted(counts, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(args=_sizes)
    def test_fastq_round_trip(self, args):
        n, shards = args
        reads = [FastqRecord(f"r{i}", "ACGT", "IIII") for i in range(n)]
        split = shard_fastq_records(reads, shards)
        assert len(split) == shards
        assert [r for shard in split for r in shard] == reads

    @settings(max_examples=40, deadline=None)
    @given(args=_sizes)
    def test_vcf_round_trip(self, args):
        n, shards = args
        records = [VcfRecord("chr1", i + 1, "A", "T") for i in range(n)]
        split = shard_vcf_records(records, shards)
        assert len(split) == shards
        assert [r for shard in split for r in shard] == records

    @settings(max_examples=40, deadline=None)
    @given(args=_sizes)
    def test_mgf_round_trip(self, args):
        n, shards = args
        spectra = [
            MgfSpectrum(title=f"s{i}", pepmass=100.0 + i, charge=2)
            for i in range(n)
        ]
        split = shard_mgf_spectra(spectra, shards)
        assert len(split) == shards
        assert [s for shard in split for s in shard] == spectra

    @settings(max_examples=40, deadline=None)
    @given(args=_sizes)
    def test_sam_round_trip_with_headers(self, args):
        n, shards = args
        header = SamHeader(references=[("chr1", 100_000)])
        records = [
            SamRecord(
                qname=f"r{i}", flag=0, rname="chr1", pos=i + 1, mapq=60,
                cigar=Cigar.parse("2M"), seq="AC", qual="II",
            )
            for i in range(n)
        ]
        split = shard_sam_records(header, records, shards)
        assert len(split) == shards
        recovered = []
        for shard_header, shard_records in split:
            assert shard_header.references == header.references
            recovered.extend(shard_records)
        assert recovered == records

    @settings(max_examples=20, deadline=None)
    @given(
        n_blocks=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_bam_round_trip(self, n_blocks, data):
        shards = data.draw(st.integers(min_value=1, max_value=n_blocks))
        header = SamHeader(references=[("chr1", 100_000)])
        block_records = 5
        records = [
            SamRecord(
                qname=f"r{i}", flag=0, rname="chr1", pos=i + 1, mapq=60,
                cigar=Cigar.parse("4M"), seq="ACGT", qual="IIII",
            )
            for i in range(n_blocks * block_records)
        ]
        blob = write_bam(header, records, block_records=block_records)
        recovered = []
        for shard in shard_bam_bytes(blob, shards):
            shard_header, shard_records = read_bam(shard)
            assert shard_header.references == header.references
            recovered.extend(shard_records)
        assert recovered == records
