"""Semantic-web substrate: triple store, OWL-lite model, SPARQL subset.

The SCAN knowledge base is "built by using semantic web technology, i.e.,
ontology and the instances" (paper Section III-A.1): an OWL/RDF ontology
describing biological data, bio-applications, cloud resources and the
relations among them, queried with SPARQL.  The paper's prototype used Jena
and Protege; this package is a from-scratch equivalent:

- :mod:`repro.ontology.triples` -- terms (IRIs and literals) and an indexed,
  append-only in-memory triple store.
- :mod:`repro.ontology.model` -- OWL-lite class and property declarations,
  individuals and subclass reasoning as views over the store, which holds
  the only copy of the vocabulary.
- :mod:`repro.ontology.sparql` -- tokenizer, parser and executor for the
  SPARQL subset used by the Data Broker (SELECT / WHERE / OPTIONAL /
  FILTER / ORDER BY / LIMIT / DISTINCT).
- :mod:`repro.ontology.serializer` -- RDF/XML-style serialization
  (matching the paper's OWL listings).
- :mod:`repro.ontology.gene_ontology` -- the Gene Ontology subset the SCAN
  ontology extends.
- :mod:`repro.ontology.scan_ontology` -- the SCAN domain ontology, cloud
  ontology and linker of Section II-C.
"""

from repro.ontology.triples import (
    IRI,
    Literal,
    Triple,
    TripleStore,
    Namespace,
    RDF,
    RDFS,
    OWL,
    XSD,
)
from repro.ontology.model import Ontology, Individual
from repro.ontology.sparql import (
    SparqlQuery,
    parse_query,
    execute_query,
    SparqlError,
    cache_stats,
    reset_cache_stats,
    clear_caches,
)
from repro.ontology.serializer import to_rdfxml
from repro.ontology.scan_ontology import (
    SCAN,
    build_scan_ontology,
    add_application_instance,
)

__all__ = [
    "IRI",
    "Literal",
    "Triple",
    "TripleStore",
    "Namespace",
    "RDF",
    "RDFS",
    "OWL",
    "XSD",
    "Ontology",
    "Individual",
    "SparqlQuery",
    "parse_query",
    "execute_query",
    "SparqlError",
    "cache_stats",
    "reset_cache_stats",
    "clear_caches",
    "to_rdfxml",
    "SCAN",
    "build_scan_ontology",
    "add_application_instance",
]
