"""Tests for the OWL-lite modelling layer."""

import pytest

from repro.ontology.model import Ontology
from repro.ontology.triples import Namespace, OWL, RDF

EX = Namespace("http://example.org/onto#")


@pytest.fixture
def onto():
    return Ontology(EX, name="test")


class TestClasses:
    def test_declare_creates_owl_class_triple(self, onto):
        cls = onto.declare_class("Application")
        assert (cls.iri, RDF.type, OWL.Class) in onto.store

    def test_redeclaration_returns_same_class(self, onto):
        a = onto.declare_class("App")
        b = onto.declare_class("App")
        assert a == b

    def test_subclass_hierarchy_transitive(self, onto):
        a = onto.declare_class("A")
        b = onto.declare_class("B", parent=a)
        c = onto.declare_class("C", parent=b)
        assert set(onto.subclasses(a.iri)) == {b.iri, c.iri}
        assert onto.subclasses(a.iri, transitive=False) == [b.iri]

    def test_subclasses_inverse(self, onto):
        a = onto.declare_class("A")
        onto.declare_class("B", parent=a)
        onto.declare_class("C", parent=a)
        assert len(onto.subclasses(a.iri)) == 2


class TestProperties:
    def test_datatype_property_domain_range_recorded(self, onto):
        app = onto.declare_class("Application")
        prop = onto.declare_datatype_property("eTime", domain=app)
        assert prop.kind == "datatype"
        assert prop.domain == app.iri

    def test_object_property(self, onto):
        a = onto.declare_class("A")
        b = onto.declare_class("B")
        prop = onto.declare_object_property("linksTo", domain=a, range_=b)
        assert prop.kind == "object"
        assert prop.range == b.iri

    def test_bad_kind_rejected(self, onto):
        from repro.ontology.model import OntProperty

        with pytest.raises(ValueError):
            OntProperty(onto, EX.x, "weird")


class TestIndividuals:
    def test_individual_typed_and_fetchable(self, onto):
        app = onto.declare_class("Application")
        ind = onto.individual("GATK1", app)
        assert ind.is_a(app)
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

    def test_get_all_multi_valued(self, onto):
        ind = onto.individual("W")
        ind.set("tag", "a").set("tag", "b")
        assert sorted(ind.get_all("tag")) == ["a", "b"]

    def test_types_include_superclasses(self, onto):
        base = onto.declare_class("Workflow")
        genome = onto.declare_class("GenomeAnalysis", parent=base)
        ind = onto.individual("VariantCalling", genome)
        assert ind.is_a(base)
        assert ind.is_a(genome)
        assert not onto.individual("Other", base).is_a(genome)

    def test_individuals_of_class_includes_subclass_members(self, onto):
        base = onto.declare_class("Workflow")
        genome = onto.declare_class("GenomeAnalysis", parent=base)
        onto.individual("W1", genome)
        onto.individual("W2", base)
        assert len(base.individuals()) == 2
        assert len(base.individuals(direct=True)) == 1

    def test_properties_dict_excludes_type(self, onto):
        app = onto.declare_class("Application")
        ind = onto.individual("X", app)
        ind.set("eTime", 5)
        props = ind.properties()
        assert list(props.values()) == [[5]]


class TestResolution:
    def test_resolve_accepts_full_iri_string(self, onto):
        cls = onto.declare_class("Thing")
        assert onto.get_class(str(cls.iri)) == cls

    def test_resolve_accepts_local_name(self, onto):
        cls = onto.declare_class("Thing")
        assert onto.get_class("Thing") == cls
