"""SPARQL hot-path cache correctness: unit tests + Hypothesis properties.

The cache layer must be *invisible*: for any interleaving of store
mutations and queries, ``execute_query(store, q)`` (cached) must return
exactly what ``execute_query(store, q, cache=False)`` (uncached) returns.
Invalidation rides on :attr:`TripleStore.epoch`, which bumps on every
effective add (the store is append-only).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ontology.sparql import (
    cache_stats,
    clear_caches,
    execute_query,
    parse_query,
    reset_cache_stats,
)
from repro.ontology.triples import IRI, TripleStore

EX = "http://example.org/"

QUERIES = (
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p",
    "SELECT ?s ?v WHERE { ?s ex:p0 ?v } ORDER BY ?s",
    "SELECT DISTINCT ?s WHERE { ?s ?p ?o } ORDER BY ?s",
    "SELECT ?s ?v WHERE { ?s ex:p1 ?v . FILTER(?v > 3) } ORDER BY ?s ?v",
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    reset_cache_stats()
    yield
    clear_caches()
    reset_cache_stats()


def make_store() -> TripleStore:
    store = TripleStore()
    store.bind_prefix("ex", EX)
    return store


def triple_for(i: int) -> tuple[IRI, IRI, int]:
    # A small closed universe so adds collide interestingly.
    return IRI(f"{EX}s{i % 4}"), IRI(f"{EX}p{i % 2}"), i % 8


class TestEpoch:
    def test_epoch_bumps_on_effective_mutations_only(self):
        store = make_store()
        assert store.epoch == 0
        store.add(IRI(EX + "a"), IRI(EX + "p"), 1)
        assert store.epoch == 1
        store.add(IRI(EX + "a"), IRI(EX + "p"), 1)  # duplicate: no-op
        assert store.epoch == 1
        store.add(IRI(EX + "a"), IRI(EX + "p"), 2)
        assert store.epoch == 2


class TestResultCache:
    def test_repeat_query_hits(self):
        store = make_store()
        store.add(*triple_for(1))
        first = execute_query(store, QUERIES[0])
        before = cache_stats()["result_hits"]
        second = execute_query(store, QUERIES[0])
        assert second == first
        assert cache_stats()["result_hits"] == before + 1

    def test_mutation_invalidates(self):
        store = make_store()
        store.add(*triple_for(1))
        stale = execute_query(store, QUERIES[0])
        store.add(*triple_for(2))
        fresh = execute_query(store, QUERIES[0])
        assert len(fresh) == len(stale) + 1
        assert fresh == execute_query(store, QUERIES[0], cache=False)

    def test_cached_rows_are_isolated_copies(self):
        store = make_store()
        store.add(*triple_for(1))
        rows = execute_query(store, QUERIES[0])
        rows[0]["s"] = "mutated by caller"
        again = execute_query(store, QUERIES[0])
        assert again[0]["s"] != "mutated by caller"

    def test_two_stores_do_not_share_results(self):
        a, b = make_store(), make_store()
        a.add(*triple_for(1))
        # Same query text, same epoch (both at 1 after b's different add).
        b.add(*triple_for(2))
        assert execute_query(a, QUERIES[0]) != execute_query(b, QUERIES[0])


class TestPlanCache:
    def test_parse_served_from_cache(self):
        store = make_store()
        first = parse_query(QUERIES[0], store)
        before = cache_stats()["plan_hits"]
        second = parse_query(QUERIES[0], store)
        assert second is first
        assert cache_stats()["plan_hits"] == before + 1

    def test_prefix_bindings_key_the_plan(self):
        store_a = make_store()
        store_b = TripleStore()
        store_b.bind_prefix("ex", "http://other.example/")
        plan_a = parse_query(QUERIES[1], store_a)
        plan_b = parse_query(QUERIES[1], store_b)
        assert plan_a is not plan_b


# -- Hypothesis: cached == uncached under arbitrary mutation sequences --------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "query"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=len(QUERIES) - 1),
    ),
    max_size=30,
)


class TestCacheTransparency:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_any_mutation_sequence_matches_uncached(self, ops):
        store = make_store()
        for op, i, qi in ops:
            if op == "add":
                store.add(*triple_for(i))
            else:
                query = QUERIES[qi]
                assert execute_query(store, query) == execute_query(
                    store, query, cache=False
                )
        # Final sweep: every query agrees after the dust settles.
        for query in QUERIES:
            assert execute_query(store, query) == execute_query(
                store, query, cache=False
            )
