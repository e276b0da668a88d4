"""OWL-lite modelling layer over the triple store.

Provides the vocabulary SCAN needs: named classes with a subclass hierarchy,
object/datatype properties with domain and range, named individuals with
property assertions, and simple reasoning (subclass transitivity and type
inheritance), in the spirit of the Jena ontology API the paper cites.

The store is the only copy of the vocabulary: a class or property is its
IRI, declared by its triples, so an :class:`Ontology` is a view that holds
nothing but its namespace, its store and its name.  Nothing in the store
refers back to a view, so a dropped knowledge base is freed by reference
counting alone.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.ontology.triples import (
    IRI,
    Literal,
    Namespace,
    OWL,
    RDF,
    RDFS,
    TripleStore,
)

__all__ = ["Ontology", "Individual"]


class Individual:
    """A named individual: a view that converts literals to Python values."""

    def __init__(self, ontology: "Ontology", iri: IRI) -> None:
        self.ontology = ontology
        self.iri = iri

    @property
    def local_name(self) -> str:
        return self.iri.local_name

    def set(self, prop: "IRI | str", value: Any) -> "Individual":
        """Assert (self, prop, value); returns self for chaining."""
        self.ontology.store.add(self.iri, self.ontology._resolve(prop), value)
        return self

    def get(self, prop: "IRI | str", default: Any = None) -> Any:
        """The single Python-native value of the property, or *default*."""
        term = self.ontology.store.value(
            self.iri, self.ontology._resolve(prop), default=None
        )
        if term is None:
            return default
        return term.value if isinstance(term, Literal) else term

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Individual):
            return self.iri == other.iri and self.ontology is other.ontology
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.iri)

    def __repr__(self) -> str:
        return f"Individual({self.iri.local_name})"


class Ontology:
    """A named ontology: vocabulary declarations plus an instance store.

    Several ontologies may share one :class:`TripleStore` so that
    cross-ontology queries work (the SCAN model and the Gene Ontology
    slice do).
    """

    def __init__(
        self,
        namespace: Namespace,
        store: Optional[TripleStore] = None,
        name: str = "",
    ) -> None:
        self.ns = namespace
        self.store = store if store is not None else TripleStore(name)
        self.name = name or namespace.base

    # -- declarations -------------------------------------------------------
    def declare_class(self, name: str, parent: Optional[IRI] = None) -> IRI:
        """Declare a named class, optionally under *parent*; returns its IRI."""
        iri = self.ns[name]
        self.store.add(iri, RDF.type, OWL.Class)
        if parent is not None:
            self.store.add(iri, RDFS.subClassOf, parent)
        return iri

    def declare_object_property(
        self,
        name: str,
        domain: Optional[IRI] = None,
        range_: Optional[IRI] = None,
    ) -> IRI:
        """Declare an object property; returns its IRI."""
        return self._declare_property(name, OWL.ObjectProperty, domain, range_)

    def declare_datatype_property(
        self,
        name: str,
        domain: Optional[IRI] = None,
        range_: Optional[IRI] = None,
    ) -> IRI:
        """Declare a datatype property; returns its IRI."""
        return self._declare_property(name, OWL.DatatypeProperty, domain, range_)

    def _declare_property(
        self, name: str, kind: IRI, domain: Optional[IRI], range_: Optional[IRI]
    ) -> IRI:
        iri = self.ns[name]
        self.store.add(iri, RDF.type, kind)
        if domain is not None:
            self.store.add(iri, RDFS.domain, domain)
        if range_ is not None:
            self.store.add(iri, RDFS.range, range_)
        return iri

    def individual(self, name: str, *classes: IRI) -> Individual:
        """Create (or fetch) a named individual, asserting its classes."""
        iri = self.ns[name]
        self.store.add(iri, RDF.type, OWL.NamedIndividual)
        for cls in classes:
            self.store.add(iri, RDF.type, cls)
        return Individual(self, iri)

    # -- lookup ---------------------------------------------------------------
    def get_class(self, name_or_iri: "str | IRI") -> Optional[IRI]:
        """The IRI of the declared class for a name/IRI, or None."""
        iri = self._resolve(name_or_iri)
        if (iri, RDF.type, OWL.Class) in self.store:
            return iri
        return None

    def get_individual(self, name_or_iri: "str | IRI") -> Optional[Individual]:
        """The named individual for a name/IRI, or None."""
        iri = self._resolve(name_or_iri)
        if (iri, RDF.type, OWL.NamedIndividual) in self.store:
            return Individual(self, iri)
        return None

    def _resolve(self, name_or_iri: "str | IRI") -> IRI:
        if isinstance(name_or_iri, IRI):
            return name_or_iri
        if "://" in name_or_iri:
            return IRI(name_or_iri)
        return self.ns[name_or_iri]

    # -- reasoning --------------------------------------------------------------
    def subclasses(self, cls: IRI, transitive: bool = True) -> list[IRI]:
        """Subclasses of *cls* via rdfs:subClassOf (transitively)."""
        out: list[IRI] = []
        seen: set[IRI] = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop()
            for child in self.store.subjects(RDFS.subClassOf, current):
                if child not in seen:
                    seen.add(child)
                    out.append(child)
                    if transitive:
                        frontier.append(child)
        return out

    def individuals_of(self, cls: IRI, direct: bool = False) -> list[Individual]:
        """All individuals typed as *cls* (or any subclass unless direct)."""
        classes = [cls] if direct else [cls, *self.subclasses(cls)]
        seen: set[IRI] = set()
        out: list[Individual] = []
        for c in classes:
            for subj in self.store.subjects(RDF.type, c):
                if subj not in seen:
                    seen.add(subj)
                    out.append(Individual(self, subj))
        return out

    def __repr__(self) -> str:
        return f"<Ontology {self.name} triples={len(self.store)}>"
