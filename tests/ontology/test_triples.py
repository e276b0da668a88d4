"""Tests for RDF terms and the indexed triple store."""

import pytest

from repro.ontology.sparql import SparqlError, execute_query
from repro.ontology.triples import (
    IRI,
    Literal,
    Namespace,
    RDF,
    TripleStore,
)

EX = Namespace("http://example.org/")


class TestTerms:
    def test_iri_local_name_fragment(self):
        assert IRI("http://example.org/onto#GATK1").local_name == "GATK1"

    def test_iri_local_name_path(self):
        assert IRI("http://example.org/data/sample").local_name == "sample"

    def test_literal_datatype_inference(self):
        assert Literal(5).datatype.endswith("integer")
        assert Literal(5.0).datatype.endswith("double")
        assert Literal(True).datatype.endswith("boolean")
        assert Literal("x").datatype.endswith("string")

    def test_literal_equality_includes_datatype(self):
        assert Literal(5) != Literal(5.0)
        assert Literal(5) == Literal(5)

    def test_literal_as_number(self):
        assert Literal(5).as_number() == 5.0
        assert Literal("3.5").as_number() == 3.5
        with pytest.raises(TypeError):
            Literal("not-a-number").as_number()

    def test_unsupported_literal_rejected(self):
        with pytest.raises(TypeError):
            Literal([1, 2, 3])  # type: ignore[arg-type]

    def test_namespace_builds_iris(self):
        assert EX.thing == IRI("http://example.org/thing")
        assert EX["other"] == IRI("http://example.org/other")
        assert "http://example.org/thing" in EX


class TestTripleStoreMutation:
    def test_add_and_len(self):
        store = TripleStore()
        store.add(EX.a, EX.p, EX.b)
        store.add(EX.a, EX.p, 5)
        assert len(store) == 2

    def test_duplicate_add_is_noop(self):
        store = TripleStore()
        store.add(EX.a, EX.p, EX.b)
        store.add(EX.a, EX.p, EX.b)
        assert len(store) == 1

    def test_bare_string_object_becomes_literal(self):
        store = TripleStore()
        store.add(EX.a, EX.p, "hello")
        objs = store.objects(EX.a, EX.p)
        assert objs == [Literal("hello")]

    def test_invalid_subject_rejected(self):
        store = TripleStore()
        with pytest.raises(TypeError):
            store.add(5, EX.p, EX.b)  # type: ignore[arg-type]


class TestTripleStoreMatching:
    @pytest.fixture
    def store(self):
        s = TripleStore()
        s.add(EX.gatk, RDF.type, EX.Application)
        s.add(EX.bwa, RDF.type, EX.Application)
        s.add(EX.gatk, EX.inputSize, 10)
        s.add(EX.gatk, EX.eTime, 180)
        s.add(EX.bwa, EX.inputSize, 4)
        return s

    def test_match_spo_exact(self, store):
        assert len(list(store.match(EX.gatk, RDF.type, EX.Application))) == 1

    def test_match_by_subject(self, store):
        assert len(list(store.match(EX.gatk, None, None))) == 3

    def test_match_by_predicate(self, store):
        assert len(list(store.match(None, EX.inputSize, None))) == 2

    def test_match_by_object(self, store):
        subs = {t.subject for t in store.match(None, None, EX.Application)}
        assert subs == {EX.gatk, EX.bwa}

    def test_match_all(self, store):
        assert len(list(store.match())) == 5

    def test_contains(self, store):
        assert (EX.gatk, EX.inputSize, 10) in store
        assert (EX.gatk, EX.inputSize, 11) not in store

    def test_objects_subjects_value(self, store):
        assert store.objects(EX.gatk, EX.inputSize) == [Literal(10)]
        assert store.subjects(RDF.type, EX.Application) != []
        assert store.value(EX.gatk, EX.eTime) == Literal(180)
        assert store.value(EX.gatk, EX.missing, default="dflt") == "dflt"

    def test_value_multiple_raises(self, store):
        store.add(EX.gatk, EX.inputSize, 99)
        with pytest.raises(ValueError):
            store.value(EX.gatk, EX.inputSize)


class TestPrefixes:
    def test_expand_and_shrink(self):
        # A bound prefix expands in queries against the store and
        # compacts IRIs for serialization.
        store = TripleStore()
        store.bind_prefix("ex", "http://example.org/")
        store.add(EX.thing, RDF.type, EX.Application)
        rows = execute_query(store, "SELECT ?t WHERE { ex:thing a ?t }")
        assert rows == [{"t": IRI("http://example.org/Application")}]
        assert store.shrink("http://example.org/thing") == "ex:thing"

    def test_unknown_prefix_raises(self):
        store = TripleStore()
        with pytest.raises(SparqlError):
            execute_query(store, "SELECT ?t WHERE { nope:thing a ?t }")

    def test_shrink_unknown_returns_full(self):
        store = TripleStore()
        assert store.shrink("urn:other:x") == "urn:other:x"

    def test_default_prefixes_present(self):
        store = TripleStore()
        assert "rdf" in store.prefixes and "owl" in store.prefixes
