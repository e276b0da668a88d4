"""RDF/XML-style serialization of triple stores.

The writer mirrors the paper's OWL listings (Section III-A.1.i), emitting
``owl:NamedIndividual`` blocks with datatype-property children like
``<scan-ontology:inputFileSize>10</scan-ontology:inputFileSize>``.
"""

from __future__ import annotations

from repro.ontology.triples import (
    IRI,
    Literal,
    OWL,
    RDF,
    Term,
    TripleStore,
)

__all__ = ["to_rdfxml"]


def _term_sort_key(term: Term) -> str:
    if isinstance(term, Literal):
        return f"~lit~{term.value}"
    return str(term)


def to_rdfxml(store: TripleStore, ontology_prefix: str = "scan-ontology") -> str:
    """Serialize named individuals as RDF/XML, paper-listing style.

    Only ``owl:NamedIndividual`` subjects are emitted (that is what the
    paper's listings show); class/property declarations are skipped.
    """
    # Imported here: xml.sax pulls in urllib, http and ssl, which nothing
    # else on a simulation's import path needs.
    from xml.sax.saxutils import escape

    base = store.prefixes.get(ontology_prefix)
    lines: list[str] = ['<?xml version="1.0"?>']
    ns_attrs = [
        f'    xmlns:rdf="{RDF.base}"',
        f'    xmlns:owl="{OWL.base}"',
    ]
    if base is not None:
        ns_attrs.append(f'    xmlns:{ontology_prefix}="{base}"')
    lines.append("<rdf:RDF")
    lines.extend(ns_attrs)
    lines.append(">")

    individuals = sorted(
        set(store.subjects(RDF.type, OWL.NamedIndividual)), key=str
    )
    for subject in individuals:
        lines.append(f"  <!-- {subject} -->")
        lines.append(f'  <owl:NamedIndividual rdf:about="{escape(str(subject))}">')
        triples = sorted(
            store.match(subject, None, None),
            key=lambda t: (str(t.predicate), _term_sort_key(t.object)),
        )
        for triple in triples:
            pred = triple.predicate
            if pred == RDF.type:
                if triple.object == OWL.NamedIndividual:
                    continue
                lines.append(
                    f'    <rdf:type rdf:resource="{escape(str(triple.object))}"/>'
                )
                continue
            tag = _qname(store, pred, ontology_prefix)
            obj = triple.object
            if isinstance(obj, Literal):
                lines.append(f"    <{tag}>{escape(str(obj.value))}</{tag}>")
            else:
                lines.append(f'    <{tag} rdf:resource="{escape(str(obj))}"/>')
        lines.append("  </owl:NamedIndividual>")
    lines.append("</rdf:RDF>")
    return "\n".join(lines) + "\n"


def _qname(store: TripleStore, iri: IRI, default_prefix: str) -> str:
    compact = store.shrink(iri)
    if compact != str(iri) and ":" in compact:
        return compact
    return f"{default_prefix}:{iri.local_name}"

