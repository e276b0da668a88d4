"""OWL-lite modelling layer over the triple store.

Provides the vocabulary SCAN needs: named classes with a subclass hierarchy,
object/datatype properties with domain and range, named individuals with
property assertions, and simple reasoning (subclass transitivity and type
inheritance), in the spirit of the Jena ontology API the paper cites.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.ontology.triples import (
    IRI,
    Literal,
    Namespace,
    OWL,
    RDF,
    RDFS,
    Term,
    TripleStore,
)

__all__ = ["Ontology", "OntClass", "OntProperty", "Individual"]


class OntClass:
    """A named OWL class bound to an ontology."""

    def __init__(self, ontology: "Ontology", iri: IRI) -> None:
        self.ontology = ontology
        self.iri = iri

    @property
    def local_name(self) -> str:
        return self.iri.local_name

    def subclass_of(self, parent: "OntClass | IRI") -> "OntClass":
        """Assert this class as a subclass of *parent*; returns self."""
        parent_iri = parent.iri if isinstance(parent, OntClass) else parent
        self.ontology.store.add(self.iri, RDFS.subClassOf, parent_iri)
        return self

    def subclasses(self, transitive: bool = True) -> list[IRI]:
        """Subclass IRIs via rdfs:subClassOf (inverse)."""
        return self.ontology.subclasses(self.iri, transitive=transitive)

    def individuals(self, direct: bool = False) -> list["Individual"]:
        """Individuals of this class (including subclasses unless direct)."""
        return self.ontology.individuals_of(self.iri, direct=direct)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OntClass):
            return self.iri == other.iri and self.ontology is other.ontology
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.iri)

    def __repr__(self) -> str:
        return f"OntClass({self.iri.local_name})"


class OntProperty:
    """A named OWL property (object or datatype)."""

    def __init__(
        self,
        ontology: "Ontology",
        iri: IRI,
        kind: str,
        domain: Optional[IRI] = None,
        range_: Optional[IRI] = None,
    ) -> None:
        if kind not in ("object", "datatype"):
            raise ValueError(f"property kind must be object|datatype, got {kind}")
        self.ontology = ontology
        self.iri = iri
        self.kind = kind
        self.domain = domain
        self.range = range_

    @property
    def local_name(self) -> str:
        return self.iri.local_name

    def __repr__(self) -> str:
        return f"OntProperty({self.iri.local_name}, {self.kind})"


class Individual:
    """A named individual with convenient property access."""

    def __init__(self, ontology: "Ontology", iri: IRI) -> None:
        self.ontology = ontology
        self.iri = iri

    @property
    def local_name(self) -> str:
        return self.iri.local_name

    def set(self, prop: "OntProperty | IRI | str", value: Any) -> "Individual":
        """Assert (self, prop, value); returns self for chaining."""
        prop_iri = _prop_iri(self.ontology, prop)
        self.ontology.store.add(self.iri, prop_iri, value)
        return self

    def get(self, prop: "OntProperty | IRI | str", default: Any = None) -> Any:
        """The single Python-native value of the property, or *default*."""
        prop_iri = _prop_iri(self.ontology, prop)
        term = self.ontology.store.value(self.iri, prop_iri, default=None)
        if term is None:
            return default
        return _to_python(term)

    def get_all(self, prop: "OntProperty | IRI | str") -> list[Any]:
        """All Python-native values of the property."""
        prop_iri = _prop_iri(self.ontology, prop)
        return [_to_python(t) for t in self.ontology.store.objects(self.iri, prop_iri)]

    def is_a(self, cls: "OntClass | IRI") -> bool:
        """Whether the individual is typed as *cls* (with closure)."""
        cls_iri = cls.iri if isinstance(cls, OntClass) else cls
        classes = {cls_iri, *self.ontology.subclasses(cls_iri)}
        return any(
            t in classes
            for t in self.ontology.store.objects(self.iri, RDF.type)
        )

    def properties(self) -> dict[IRI, list[Any]]:
        """All asserted (non-type) property values, Python-native."""
        out: dict[IRI, list[Any]] = {}
        for t in self.ontology.store.match(self.iri, None, None):
            if t.predicate == RDF.type:
                continue
            out.setdefault(t.predicate, []).append(_to_python(t.object))
        return out

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

    The SCAN semantic model composes a domain ontology, a cloud ontology and
    a linker (paper Section II-C); each is an ``Ontology`` sharing one
    underlying :class:`TripleStore` so cross-ontology queries work.
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
        self._classes: dict[IRI, OntClass] = {}
        self._properties: dict[IRI, OntProperty] = {}

    # -- declarations -------------------------------------------------------
    def declare_class(
        self, name: str, parent: "OntClass | IRI | None" = None
    ) -> OntClass:
        """Declare (or fetch) a named class, optionally under *parent*."""
        iri = self.ns[name]
        cls = self._classes.get(iri)
        if cls is None:
            cls = OntClass(self, iri)
            self._classes[iri] = cls
            self.store.add(iri, RDF.type, OWL.Class)
        if parent is not None:
            cls.subclass_of(parent)
        return cls

    def declare_object_property(
        self,
        name: str,
        domain: "OntClass | IRI | None" = None,
        range_: "OntClass | IRI | None" = None,
    ) -> OntProperty:
        """Declare (or fetch) an object property."""
        return self._declare_property(name, "object", domain, range_)

    def declare_datatype_property(
        self,
        name: str,
        domain: "OntClass | IRI | None" = None,
        range_: Optional[IRI] = None,
    ) -> OntProperty:
        """Declare (or fetch) a datatype property."""
        return self._declare_property(name, "datatype", domain, range_)

    def _declare_property(self, name, kind, domain, range_) -> OntProperty:
        iri = self.ns[name]
        prop = self._properties.get(iri)
        if prop is None:
            domain_iri = domain.iri if isinstance(domain, OntClass) else domain
            range_iri = range_.iri if isinstance(range_, OntClass) else range_
            prop = OntProperty(self, iri, kind, domain_iri, range_iri)
            self._properties[iri] = prop
            type_iri = (
                OWL.ObjectProperty if kind == "object" else OWL.DatatypeProperty
            )
            self.store.add(iri, RDF.type, type_iri)
            if domain_iri is not None:
                self.store.add(iri, RDFS.domain, domain_iri)
            if range_iri is not None:
                self.store.add(iri, RDFS.range, range_iri)
        return prop

    def individual(self, name: str, *classes: "OntClass | IRI") -> Individual:
        """Create (or fetch) a named individual, asserting its classes."""
        iri = self.ns[name]
        ind = Individual(self, iri)
        self.store.add(iri, RDF.type, OWL.NamedIndividual)
        for cls in classes:
            cls_iri = cls.iri if isinstance(cls, OntClass) else cls
            self.store.add(iri, RDF.type, cls_iri)
        return ind

    # -- lookup ---------------------------------------------------------------
    def get_class(self, name_or_iri: "str | IRI") -> Optional[OntClass]:
        """The declared class for a name/IRI, or None."""
        iri = self._resolve(name_or_iri)
        return self._classes.get(iri)

    def get_property(self, name_or_iri: "str | IRI") -> Optional[OntProperty]:
        """The declared property for a name/IRI, or None."""
        iri = self._resolve(name_or_iri)
        return self._properties.get(iri)

    def get_individual(self, name_or_iri: "str | IRI") -> Optional[Individual]:
        """The named individual for a name/IRI, or None."""
        iri = self._resolve(name_or_iri)
        if (iri, RDF.type, OWL.NamedIndividual) in self.store:
            return Individual(self, iri)
        return None

    def classes(self) -> Iterator[OntClass]:
        """All declared classes."""
        return iter(self._classes.values())

    def properties(self) -> Iterator[OntProperty]:
        """All declared properties."""
        return iter(self._properties.values())

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
            for t in self.store.match(None, RDFS.subClassOf, current):
                child = t.subject
                if isinstance(child, IRI) and child not in seen:
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
                if isinstance(subj, IRI) and subj not in seen:
                    seen.add(subj)
                    out.append(Individual(self, subj))
        return out

    def __repr__(self) -> str:
        return f"<Ontology {self.name} classes={len(self._classes)} triples={len(self.store)}>"


def _prop_iri(ontology: Ontology, prop: "OntProperty | IRI | str") -> IRI:
    if isinstance(prop, OntProperty):
        return prop.iri
    if isinstance(prop, IRI):
        return prop
    return ontology._resolve(prop)


def _to_python(term: Term) -> Any:
    if isinstance(term, Literal):
        return term.value
    return term
