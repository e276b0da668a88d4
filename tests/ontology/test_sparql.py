"""Tests for the SPARQL-subset query engine."""

import pytest

from repro.ontology.sparql import SparqlError, execute_query, parse_query
from repro.ontology.triples import IRI, Namespace, TripleStore

SCAN = Namespace("http://www.semanticweb.org/wxing/ontologies/scan-ontology#")
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


@pytest.fixture
def store():
    s = TripleStore()
    s.bind_prefix("scan", SCAN.base)
    # The paper's GATK1-GATK4 knowledge-base expansion.
    for name, size, etime in [
        ("GATK1", 10, 180),
        ("GATK2", 5, 200),
        ("GATK3", 20, 280),
        ("GATK4", 4, 80),
    ]:
        ind = SCAN[name]
        s.add(ind, IRI(RDF_TYPE), SCAN.Application)
        s.add(ind, SCAN.inputFileSize, size)
        s.add(ind, SCAN.eTime, etime)
        s.add(ind, SCAN.CPU, 8)
        s.add(ind, SCAN.RAM, 4)
    s.add(SCAN.GATK1, SCAN.performance, "good")
    return s


class TestParsing:
    def test_parse_basic_select(self, store):
        q = parse_query("SELECT ?x WHERE { ?x ?p ?o }", store)
        assert [v.name for v in q.variables] == ["x"]
        assert len(q.where.patterns) == 1

    def test_parse_star_projection(self, store):
        q = parse_query("SELECT * WHERE { ?x ?p ?o }", store)
        assert q.variables is None

    def test_prefix_declaration(self):
        q = parse_query(
            'PREFIX ex: <http://e.org/> SELECT ?x WHERE { ?x ex:p "v" }'
        )
        assert q.where.patterns[0].predicate == IRI("http://e.org/p")

    def test_unknown_prefix_rejected(self):
        with pytest.raises(SparqlError, match="unknown prefix"):
            parse_query("SELECT ?x WHERE { ?x nope:p ?o }")

    def test_a_shorthand_for_rdf_type(self, store):
        q = parse_query("SELECT ?x WHERE { ?x a scan:Application }", store)
        assert q.where.patterns[0].predicate == IRI(RDF_TYPE)

    def test_order_limit_offset(self, store):
        q = parse_query(
            "SELECT ?x WHERE { ?x ?p ?o } ORDER BY DESC(?x) LIMIT 5 OFFSET 2",
            store,
        )
        assert q.order_by[0].descending
        assert q.limit == 5 and q.offset == 2

    def test_trailing_garbage_rejected(self, store):
        with pytest.raises(SparqlError, match="trailing"):
            parse_query("SELECT ?x WHERE { ?x ?p ?o } bogus", store)

    def test_unterminated_group_rejected(self, store):
        with pytest.raises(SparqlError):
            parse_query("SELECT ?x WHERE { ?x ?p ?o ", store)

    def test_empty_projection_rejected(self, store):
        with pytest.raises(SparqlError):
            parse_query("SELECT WHERE { ?x ?p ?o }", store)

    def test_from_clause_accepted_and_ignored(self, store):
        q = parse_query(
            "SELECT ?x FROM <scan-wxing.owl> WHERE { ?x ?p ?o }", store
        )
        assert q.variables is not None


class TestExecution:
    def test_type_query(self, store):
        rows = execute_query(
            store, "SELECT ?app WHERE { ?app a scan:Application }"
        )
        assert len(rows) == 4

    def test_join_across_patterns(self, store):
        rows = execute_query(
            store,
            """
            SELECT ?app ?size ?etime WHERE {
                ?app a scan:Application .
                ?app scan:inputFileSize ?size .
                ?app scan:eTime ?etime .
            }
            """,
        )
        assert len(rows) == 4
        by_app = {r["app"].local_name: r for r in rows}
        assert by_app["GATK4"]["size"] == 4
        assert by_app["GATK4"]["etime"] == 80

    def test_filter_numeric_range(self, store):
        rows = execute_query(
            store,
            """
            SELECT ?app WHERE {
                ?app scan:inputFileSize ?s .
                FILTER (?s >= 5 && ?s <= 10)
            }
            """,
        )
        names = {r["app"].local_name for r in rows}
        assert names == {"GATK1", "GATK2"}

    def test_filter_arithmetic(self, store):
        rows = execute_query(
            store,
            """
            SELECT ?app WHERE {
                ?app scan:eTime ?t . ?app scan:inputFileSize ?s .
                FILTER (?t / ?s < 25)
            }
            """,
        )
        # eTime/size: GATK1=18, GATK2=40, GATK3=14, GATK4=20.
        names = {r["app"].local_name for r in rows}
        assert names == {"GATK1", "GATK3", "GATK4"}

    def test_optional_binds_when_present(self, store):
        rows = execute_query(
            store,
            """
            SELECT ?app ?perf WHERE {
                ?app a scan:Application .
                OPTIONAL { ?app scan:performance ?perf . }
            }
            """,
        )
        with_perf = [r for r in rows if "perf" in r]
        assert len(with_perf) == 1
        assert with_perf[0]["perf"] == "good"

    def test_order_by_ascending(self, store):
        rows = execute_query(
            store,
            """
            SELECT ?app ?t WHERE { ?app scan:eTime ?t } ORDER BY ASC(?t)
            """,
        )
        assert [r["t"] for r in rows] == [80, 180, 200, 280]

    def test_order_by_descending_with_limit(self, store):
        rows = execute_query(
            store,
            "SELECT ?t WHERE { ?x scan:eTime ?t } ORDER BY DESC(?t) LIMIT 2",
        )
        assert [r["t"] for r in rows] == [280, 200]

    def test_distinct_collapses_duplicates(self, store):
        rows = execute_query(
            store, "SELECT DISTINCT ?cpu WHERE { ?x scan:CPU ?cpu }"
        )
        assert rows == [{"cpu": 8}]

    def test_bound_filter(self, store):
        rows = execute_query(
            store,
            """
            SELECT ?app WHERE {
                ?app a scan:Application .
                OPTIONAL { ?app scan:performance ?perf . }
                FILTER (BOUND(?perf))
            }
            """,
        )
        assert [r["app"].local_name for r in rows] == ["GATK1"]

    def test_regex_filter(self, store):
        rows = execute_query(
            store,
            """
            SELECT ?perf WHERE {
                ?x scan:performance ?perf .
                FILTER (REGEX(?perf, "^go"))
            }
            """,
        )
        assert rows == [{"perf": "good"}]

    def test_filter_on_unbound_variable_is_false(self, store):
        rows = execute_query(
            store,
            """
            SELECT ?app WHERE {
                ?app a scan:Application .
                OPTIONAL { ?app scan:performance ?perf . }
                FILTER (?perf = "good")
            }
            """,
        )
        assert len(rows) == 1  # only GATK1 has perf bound at all

    def test_repeated_variable_must_join(self, store):
        # ?x appears twice: same binding required in both patterns.
        rows = execute_query(
            store,
            """
            SELECT ?x WHERE {
                ?x scan:inputFileSize 10 .
                ?x scan:eTime 180 .
            }
            """,
        )
        assert [r["x"].local_name for r in rows] == ["GATK1"]

    def test_no_match_returns_empty(self, store):
        rows = execute_query(
            store, "SELECT ?x WHERE { ?x scan:inputFileSize 999 }"
        )
        assert rows == []

    def test_division_by_zero_raises(self, store):
        with pytest.raises(SparqlError):
            execute_query(
                store,
                "SELECT ?x WHERE { ?x scan:CPU ?c . FILTER (?c / 0 > 1) }",
            )

    def test_query_string_accepted_directly(self, store):
        rows = execute_query(store, "SELECT ?x WHERE { ?x scan:eTime 80 }")
        assert len(rows) == 1


class TestUnionAndAsk:
    def test_union_combines_alternatives(self, store):
        from repro.ontology.sparql import execute_query

        rows = execute_query(
            store,
            """
            SELECT ?app WHERE {
                ?app a scan:Application .
                { ?app scan:inputFileSize 4 } UNION { ?app scan:inputFileSize 5 }
            }
            """,
        )
        names = {r["app"].local_name for r in rows}
        assert names == {"GATK2", "GATK4"}

    def test_union_of_three(self, store):
        from repro.ontology.sparql import execute_query

        rows = execute_query(
            store,
            """
            SELECT ?app WHERE {
                { ?app scan:eTime 80 } UNION { ?app scan:eTime 180 }
                UNION { ?app scan:eTime 200 }
            }
            """,
        )
        assert len(rows) == 3

    def test_union_binding_consistency(self, store):
        """Variables bound before the union must stay consistent inside."""
        from repro.ontology.sparql import execute_query

        rows = execute_query(
            store,
            """
            SELECT ?app ?t WHERE {
                ?app scan:eTime ?t .
                { ?app scan:inputFileSize 10 } UNION { ?app scan:inputFileSize 20 }
            }
            """,
        )
        pairs = {(r["app"].local_name, r["t"]) for r in rows}
        assert pairs == {("GATK1", 180), ("GATK3", 280)}
