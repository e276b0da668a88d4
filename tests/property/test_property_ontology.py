"""Property-based tests for the semantic substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ontology.sparql import execute_query
from repro.ontology.triples import IRI, Literal, Namespace, TripleStore

EX = Namespace("http://example.org/ns#")

_locals = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)
_iris = st.builds(lambda name: EX[name], _locals)
_literals = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9).map(Literal),
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ).map(Literal),
    st.booleans().map(Literal),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd", "Zs"),
            whitelist_characters='"\\',
        ),
        max_size=30,
    ).map(Literal),
)
_triples = st.tuples(_iris, _iris, st.one_of(_iris, _literals))


def build_store(triples):
    store = TripleStore()
    store.bind_prefix("ex", EX.base)
    for s, p, o in triples:
        store.add(s, p, o)
    return store


def as_set(store):
    return {(t.subject, t.predicate, t.object) for t in store}


@given(triples=st.lists(_triples, max_size=40))
@settings(max_examples=100, deadline=None)
def test_store_size_equals_unique_triples(triples):
    store = build_store(triples)
    assert len(store) == len(set(triples))


@given(triples=st.lists(_triples, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_match_by_each_index_agrees_with_full_scan(triples):
    store = build_store(triples)
    everything = as_set(store)
    for s, p, o in list(everything)[:10]:
        assert set(
            (t.subject, t.predicate, t.object) for t in store.match(s, None, None)
        ) == {t for t in everything if t[0] == s}
        assert set(
            (t.subject, t.predicate, t.object) for t in store.match(None, p, None)
        ) == {t for t in everything if t[1] == p}
        assert set(
            (t.subject, t.predicate, t.object) for t in store.match(None, None, o)
        ) == {t for t in everything if t[2] == o}


@given(triples=st.lists(_triples, min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_sparql_select_all_matches_store(triples):
    store = build_store(triples)
    rows = execute_query(store, "SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
    assert len(rows) == len(store)

