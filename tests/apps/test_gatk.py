"""Tests for the GATK model (Table II) and the pileup caller."""

import pytest

from repro.apps.gatk import (
    CallerConfig,
    GATK_STAGES,
    PileupVariantCaller,
    build_gatk_model,
)
from repro.genomics.formats.sam import Cigar, SamFlag, SamRecord
from repro.genomics.reference import ReferenceGenome


class TestTable2Model:
    def test_seven_stages(self, gatk_model):
        assert gatk_model.n_stages == 7

    def test_table2_coefficients_exact(self, gatk_model):
        expected = [
            (0.35, 5.38, 0.89),
            (2.70, -0.53, 0.02),
            (1.74, 3.93, 0.69),
            (3.35, 0.53, 0.79),
            (1.03, 17.86, 0.91),
            (0.02, 0.39, 0.25),
            (0.01, 5.10, 0.02),
        ]
        for stage, (a, b, c) in zip(gatk_model.stages, expected):
            assert (stage.a, stage.b, stage.c) == (a, b, c)

    def test_first_stage_consumes_bam(self, gatk_model):
        assert gatk_model.input_format.value == "bam"
        assert gatk_model.output_format.value == "vcf"

    def test_sequential_time_at_5gb(self, gatk_model):
        # sum(a_i * 5 + b_i) with Table II values.
        total_a = sum(a for _n, a, _b, _c, _r in GATK_STAGES)
        total_b = sum(b for _n, _a, b, _c, _r in GATK_STAGES)
        assert sum(s.execution_time(5.0) for s in gatk_model.stages) == pytest.approx(
            total_a * 5 + total_b
        )

    def test_stage_names_distinct(self, gatk_model):
        names = [s.name for s in gatk_model.stages]
        assert len(set(names)) == 7

    def test_serial_stages_barely_speed_up(self, gatk_model):
        stage2 = gatk_model.stage(1)  # c = 0.02
        assert stage2.speedup(16) < 1.05

    def test_parallel_stage_speeds_up_well(self, gatk_model):
        stage5 = gatk_model.stage(4)  # c = 0.91
        assert stage5.speedup(16) > 6.0


class TestPileupCaller:
    @pytest.fixture
    def ref(self):
        return ReferenceGenome.synthesize(seed=21, chromosome_lengths=(500,))

    def make_read(self, ref, pos0, length=50, mutate_at=None, alt="T", mapq=60):
        seq = ref.fetch("chr1", pos0, pos0 + length)
        if mutate_at is not None:
            offset = mutate_at - pos0
            original = seq[offset]
            alt_base = alt if alt != original else ("A" if original != "A" else "C")
            seq = seq[:offset] + alt_base + seq[offset + 1 :]
        return SamRecord(
            qname=f"r{pos0}",
            flag=0,
            rname="chr1",
            pos=pos0 + 1,
            mapq=mapq,
            cigar=Cigar.parse(f"{length}M"),
            seq=seq,
            qual="I" * length,
        )

    def test_homozygous_variant_called(self, ref):
        reads = [self.make_read(ref, p, mutate_at=100) for p in range(60, 100, 5)]
        calls = PileupVariantCaller(ref).call(reads)
        assert any(c.pos == 101 for c in calls)  # VCF is 1-based

    def test_reference_reads_produce_no_calls(self, ref):
        reads = [self.make_read(ref, p) for p in range(0, 200, 10)]
        assert PileupVariantCaller(ref).call(reads) == []

    def test_min_depth_respected(self, ref):
        reads = [self.make_read(ref, p, mutate_at=100) for p in (98, 99)]
        cfg = CallerConfig(min_depth=4)
        assert PileupVariantCaller(ref, cfg).call(reads) == []

    def test_low_mapq_reads_ignored(self, ref):
        reads = [
            self.make_read(ref, p, mutate_at=100, mapq=5)
            for p in range(60, 100, 5)
        ]
        assert PileupVariantCaller(ref).call(reads) == []

    def test_allele_fraction_threshold(self, ref):
        # 2 alt reads vs 18 ref reads at the same position: AF = 0.1 < 0.25.
        alt_reads = [self.make_read(ref, p, mutate_at=100) for p in (60, 65)]
        ref_reads = [self.make_read(ref, 70) for _ in range(18)]
        calls = PileupVariantCaller(ref).call(alt_reads + ref_reads)
        assert all(c.pos != 101 for c in calls)

    def test_unmapped_reads_skipped(self, ref):
        rec = SamRecord(
            qname="u", flag=int(SamFlag.UNMAPPED), rname="*", pos=0,
            mapq=0, cigar=Cigar.parse("*"), seq="ACGT", qual="IIII",
        )
        assert PileupVariantCaller(ref).call([rec]) == []

    def test_indel_cigar_reads_skipped(self, ref):
        seq = ref.fetch("chr1", 0, 50) + "AA"
        rec = SamRecord(
            qname="i", flag=0, rname="chr1", pos=1, mapq=60,
            cigar=Cigar.parse("50M2I"), seq=seq, qual="I" * 52,
        )
        assert PileupVariantCaller(ref).call([rec]) == []

    def test_calls_sorted_and_info_populated(self, ref):
        reads = []
        for target in (200, 100):
            reads.extend(
                self.make_read(ref, p, mutate_at=target)
                for p in range(target - 40, target, 5)
            )
        calls = PileupVariantCaller(ref).call(reads)
        positions = [c.pos for c in calls]
        assert positions == sorted(positions)
        for call in calls:
            assert int(call.info["DP"]) >= 4
            assert 0.0 < float(call.info["AF"]) <= 1.0

    def test_header_carries_contigs(self, ref):
        header = PileupVariantCaller(ref).make_header()
        assert header.contigs == ref.contig_table()
