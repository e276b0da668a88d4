"""Property-based tests on sharding/merging invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.merger import merge_descriptors, merge_vcf_outputs
from repro.broker.sharders import shard_descriptor, split_counts
from repro.genomics.datasets import DataFormat, DatasetDescriptor
from repro.genomics.formats.vcf import VcfRecord


@given(
    total=st.integers(min_value=1, max_value=100_000),
    parts=st.integers(min_value=1, max_value=256),
)
@settings(max_examples=200, deadline=None)
def test_split_counts_conserves_and_balances(total, parts):
    if parts > total:
        parts = total
    counts = split_counts(total, parts)
    assert sum(counts) == total
    assert len(counts) == parts
    assert all(c >= 1 for c in counts)
    assert max(counts) - min(counts) <= 1  # near-equal


@given(
    size_gb=st.floats(min_value=0.01, max_value=500.0),
    shard_gb=st.floats(min_value=0.05, max_value=16.0),
)
@settings(max_examples=100, deadline=None)
def test_shard_descriptor_partitions_exactly(size_gb, shard_gb):
    dataset = DatasetDescriptor.from_size("d", DataFormat.FASTQ, size_gb)
    try:
        plan = shard_descriptor(dataset, shard_gb)
    except Exception:
        # Only the explicit max-shards guard may fire.
        assert size_gb / shard_gb > 99_999
        return
    assert plan.total_size_gb() == pytest.approx(size_gb, rel=1e-9)
    assert sum(s.records for s in plan.shards) == dataset.records
    # Shard sizes within a record of each other (record-proportional split).
    sizes = [s.size_gb for s in plan.shards]
    assert max(sizes) <= shard_gb * 2 + 1e-6 or plan.n_shards == 1


@given(
    size_gb=st.floats(min_value=0.5, max_value=200.0),
    shard_gb=st.floats(min_value=0.5, max_value=8.0),
)
@settings(max_examples=100, deadline=None)
def test_shard_then_merge_is_identity_on_totals(size_gb, shard_gb):
    dataset = DatasetDescriptor.from_size("d", DataFormat.BAM, size_gb)
    plan = shard_descriptor(dataset, shard_gb)
    merged = merge_descriptors(list(plan))
    assert merged.size_gb == pytest.approx(dataset.size_gb, rel=1e-9)
    assert merged.records == dataset.records
    assert merged.format is dataset.format


_variants = st.builds(
    VcfRecord,
    chrom=st.sampled_from(["chr1", "chr2"]),
    pos=st.integers(min_value=1, max_value=500),
    ref=st.sampled_from(["A", "C", "G", "T"]),
    alt=st.sampled_from(["A", "C", "G", "T"]),
    qual=st.floats(min_value=0.0, max_value=100.0),
)


@given(
    outputs=st.lists(st.lists(_variants, max_size=20), min_size=1, max_size=5)
)
@settings(max_examples=100, deadline=None)
def test_vcf_merge_sorted_unique_and_complete(outputs):
    merged = merge_vcf_outputs(outputs)
    keys = [(r.chrom, r.pos, r.ref, r.alt) for r in merged]
    # Sorted by (chrom, pos, alt) and unique per site+alleles.
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[3]))
    assert len(set(keys)) == len(keys)
    # Every input site survives.
    input_keys = {
        (r.chrom, r.pos, r.ref, r.alt) for out in outputs for r in out
    }
    assert set(keys) == input_keys
    # Each merged record carries the max quality seen for its key.
    for record in merged:
        key = (record.chrom, record.pos, record.ref, record.alt)
        best = max(
            (r.qual or 0.0)
            for out in outputs
            for r in out
            if (r.chrom, r.pos, r.ref, r.alt) == key
        )
        assert (record.qual or 0.0) == pytest.approx(best)
