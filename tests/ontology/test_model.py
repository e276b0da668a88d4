"""Tests for the OWL-lite modelling layer."""

import pytest

from repro.ontology.model import Ontology
from repro.ontology.triples import Namespace, OWL, RDF, RDFS

EX = Namespace("http://example.org/onto#")


@pytest.fixture
def onto():
    return Ontology(EX, name="test")


class TestClasses:
    def test_declare_creates_owl_class_triple(self, onto):
        cls = onto.declare_class("Application")
        assert cls == EX.Application
        assert (cls, RDF.type, OWL.Class) in onto.store

    def test_redeclaration_returns_same_class(self, onto):
        a = onto.declare_class("App")
        before = len(onto.store)
        b = onto.declare_class("App")
        assert a == b
        assert len(onto.store) == before

    def test_subclass_hierarchy_transitive(self, onto):
        a = onto.declare_class("A")
        b = onto.declare_class("B", parent=a)
        c = onto.declare_class("C", parent=b)
        assert set(onto.subclasses(a)) == {b, c}
        assert onto.subclasses(a, transitive=False) == [b]

    def test_subclasses_inverse(self, onto):
        a = onto.declare_class("A")
        onto.declare_class("B", parent=a)
        onto.declare_class("C", parent=a)
        assert len(onto.subclasses(a)) == 2


class TestProperties:
    def test_datatype_property_domain_range_recorded(self, onto):
        app = onto.declare_class("Application")
        prop = onto.declare_datatype_property("eTime", domain=app)
        assert (prop, RDF.type, OWL.DatatypeProperty) in onto.store
        assert onto.store.objects(prop, RDFS.domain) == [app]
        assert onto.store.objects(prop, RDFS.range) == []

    def test_object_property(self, onto):
        a = onto.declare_class("A")
        b = onto.declare_class("B")
        prop = onto.declare_object_property("linksTo", domain=a, range_=b)
        assert (prop, RDF.type, OWL.ObjectProperty) in onto.store
        assert onto.store.objects(prop, RDFS.range) == [b]


class TestIndividuals:
    def test_individual_typed_and_fetchable(self, onto):
        app = onto.declare_class("Application")
        ind = onto.individual("GATK1", app)
        assert onto.individuals_of(app) == [ind]
        assert onto.get_individual("GATK1") == ind

    def test_get_missing_individual_is_none(self, onto):
        assert onto.get_individual("Nobody") is None

    def test_set_get_property_values(self, onto):
        app = onto.declare_class("Application")
        ind = onto.individual("GATK1", app)
        ind.set("eTime", 180).set("inputFileSize", 10.0)
        assert ind.get("eTime") == 180
        assert ind.get("inputFileSize") == 10.0
        assert ind.get("missing", default="x") == "x"

    def test_types_include_superclasses(self, onto):
        base = onto.declare_class("Workflow")
        genome = onto.declare_class("GenomeAnalysis", parent=base)
        ind = onto.individual("VariantCalling", genome)
        other = onto.individual("Other", base)
        assert onto.individuals_of(base) == [other, ind]
        assert onto.individuals_of(genome) == [ind]

    def test_individuals_of_class_includes_subclass_members(self, onto):
        base = onto.declare_class("Workflow")
        genome = onto.declare_class("GenomeAnalysis", parent=base)
        onto.individual("W1", genome)
        onto.individual("W2", base)
        assert len(onto.individuals_of(base)) == 2
        assert len(onto.individuals_of(base, direct=True)) == 1


class TestResolution:
    def test_resolve_accepts_full_iri_string(self, onto):
        cls = onto.declare_class("Thing")
        assert onto.get_class(str(cls)) == cls

    def test_resolve_accepts_local_name(self, onto):
        cls = onto.declare_class("Thing")
        assert onto.get_class("Thing") == cls
        assert onto.get_class("Nothing") is None
