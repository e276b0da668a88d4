"""Tests for the SCAN semantic model and the GO slice."""

import pytest

from repro.ontology.gene_ontology import GO, GO_TERMS, load_gene_ontology
from repro.ontology.scan_ontology import (
    DEFAULT_WORKFLOWS,
    SCAN,
    add_application_instance,
    build_scan_ontology,
)
from repro.ontology.sparql import execute_query
from repro.ontology.triples import OWL, RDF, RDFS


@pytest.fixture(scope="module")
def onto():
    return build_scan_ontology()


class TestGeneOntology:
    def test_roots_present(self):
        go = load_gene_ontology()
        for root in ("0008150", "0003674", "0005575"):
            assert go.get_class(root) is not None

    def test_is_a_transitivity(self):
        go = load_gene_ontology()
        dna_repair = go.get_class("0006281")
        assert dna_repair is not None
        root = go.get_class("0008150")  # biological_process
        assert dna_repair in go.subclasses(root)

    def test_every_parent_exists(self):
        accessions = {t.accession for t in GO_TERMS}
        for term in GO_TERMS:
            for parent in term.parents:
                assert parent in accessions

    def test_lookup_by_label(self):
        go = load_gene_ontology()
        assert go.store.subjects(RDFS.label, "DNA repair") == [GO["0006281"]]


class TestScanOntology:
    def test_three_ontologies_share_store(self, onto):
        # Domain, cloud and linker vocabulary land in one store, with GO.
        assert onto.scan.store is onto.store
        assert onto.gene_ontology.store is onto.store
        for name in ("BiologicalData", "CloudService"):
            assert (SCAN[name], RDF.type, OWL.Class) in onto.store
        assert (SCAN["runsOn"], RDF.type, OWL.ObjectProperty) in onto.store
        assert (GO["0008150"], RDF.type, OWL.Class) in onto.store

    def test_more_than_ten_workflows(self, onto):
        """The paper: 'we have defined over 10 different genome analysis
        workflows (as instances of the class GenomeAnalysis)'."""
        genome_cls = onto.scan.get_class("GenomeAnalysis")
        assert genome_cls is not None
        assert len(onto.scan.individuals_of(genome_cls)) >= 10

    def test_tier_individuals(self, onto):
        private = onto.scan.get_individual("PrivateTier")
        assert private is not None
        assert private.get("corePrice") == 5.0
        assert private.get("coreCount") == 624

    def test_aligned_genomic_data_class(self, onto):
        aligned = onto.scan.get_class("AlignedGenomicData")
        bam = onto.scan.get_class("BAMData")
        assert aligned is not None and bam is not None
        assert bam in onto.scan.subclasses(aligned)

    def test_linker_properties_declared(self, onto):
        for prop in ("requiredBy", "requiresResource", "consumesFormat", "runsOn"):
            assert (SCAN[prop], RDF.type, OWL.ObjectProperty) in onto.store


class TestApplicationInstances:
    def test_paper_listing_roundtrip(self):
        onto = build_scan_ontology(include_gene_ontology=False)
        # The exact GATK1 individual from the paper's OWL listing.
        ind = add_application_instance(
            onto, "GATK1", app_name="gatk", input_file_size=10,
            e_time=180, cpu=8, ram=4, steps=1,
        )
        assert ind.get("inputFileSize") == 10.0
        assert ind.get("eTime") == 180.0
        assert ind.get("CPU") == 8
        assert ind.get("RAM") == 4.0
        assert ind.get("steps") == 1

    def test_kb_expansion_all_four_gatk_instances(self):
        onto = build_scan_ontology(include_gene_ontology=False)
        rows = [
            ("GATK1", 10, 180), ("GATK2", 5, 200),
            ("GATK3", 20, 280), ("GATK4", 4, 80),
        ]
        for name, size, etime in rows:
            add_application_instance(
                onto, name, app_name="gatk", input_file_size=size,
                e_time=etime, cpu=8, ram=4,
            )
        assert len(onto.application_instances("gatk")) == 4

        # The paper's broker ranking: by execution time.
        results = execute_query(
            onto.store,
            f"""
            PREFIX scan: <{SCAN.base}>
            SELECT ?i ?t WHERE {{
                ?i a scan:Application . ?i scan:eTime ?t .
            }} ORDER BY ASC(?t)
            """,
        )
        assert [r["i"].local_name for r in results] == [
            "GATK4", "GATK1", "GATK2", "GATK3",
        ]

    def test_extra_properties(self):
        onto = build_scan_ontology(include_gene_ontology=False)
        ind = add_application_instance(
            onto, "X1", app_name="x", input_file_size=1, e_time=1,
            cpu=1, ram=1, performance="good", extra={"note": "hello"},
        )
        assert ind.get("performance") == "good"
        assert ind.get("note") == "hello"

    def test_default_workflows_unique(self):
        names = [w for w, _ in DEFAULT_WORKFLOWS]
        assert len(names) == len(set(names))
