"""Tests for RDF/XML serialization."""

import pytest

from repro.ontology.serializer import to_rdfxml
from repro.ontology.scan_ontology import (
    add_application_instance,
    build_scan_ontology,
)
from repro.ontology.triples import Namespace, OWL, RDF, TripleStore

EX = Namespace("http://example.org/#")


@pytest.fixture
def scan_with_gatk():
    onto = build_scan_ontology(include_gene_ontology=False)
    add_application_instance(
        onto, "GATK1", app_name="gatk", input_file_size=10,
        e_time=180, cpu=8, ram=4, steps=1,
    )
    return onto


class TestRdfXml:
    def test_paper_style_individual_block(self, scan_with_gatk):
        xml = to_rdfxml(scan_with_gatk.store)
        assert '<owl:NamedIndividual rdf:about=' in xml
        assert "GATK1" in xml
        # Datatype properties as element text, as in the paper's listing.
        assert ">10.0<" in xml or ">10<" in xml
        assert "inputFileSize" in xml
        assert "eTime" in xml

    def test_rdf_type_resource_attribute(self, scan_with_gatk):
        xml = to_rdfxml(scan_with_gatk.store)
        assert '<rdf:type rdf:resource=' in xml
        assert "Application" in xml

    def test_well_formed_xml(self, scan_with_gatk):
        import xml.dom.minidom

        xml.dom.minidom.parseString(to_rdfxml(scan_with_gatk.store))

    def test_only_named_individuals_emitted(self):
        store = TripleStore()
        store.add(EX.cls, RDF.type, OWL.Class)  # a class, not an individual
        xml = to_rdfxml(store)
        assert "NamedIndividual" not in xml.replace(
            "xmlns", ""
        ).split(">", 1)[1] if ">" in xml else True
        assert str(EX.cls) not in xml
