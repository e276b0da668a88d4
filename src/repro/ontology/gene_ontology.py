"""A Gene Ontology (GO) subset.

"The ontology is based on the Gene Ontology (GO) ... and extends the GO to
include descriptions about biological data types and formats,
bio-applications, cloud middleware services, computing and storage
resources, networks, and usage policies" (paper Section III-A.1.i).

This module ships a small, hand-curated slice of GO sufficient to anchor
the SCAN domain ontology: the three root aspects plus the terms relevant to
cancer-genome analysis workflows (DNA metabolic process, mutation-adjacent
terms, protein binding, etc.), with ``is_a`` edges as ``rdfs:subClassOf``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ontology.model import Ontology
from repro.ontology.triples import Namespace, TripleStore, RDFS

__all__ = ["GO", "GO_TERMS", "load_gene_ontology"]

GO = Namespace("http://purl.obolibrary.org/obo/GO_")


@dataclass(frozen=True)
class GoTerm:
    """One GO term: numeric accession, label and is_a parents."""

    accession: str
    label: str
    parents: tuple[str, ...] = ()
    aspect: str = "biological_process"


#: The curated GO slice.  Accessions are real GO identifiers.
GO_TERMS: tuple[GoTerm, ...] = (
    # Roots.
    GoTerm("0008150", "biological_process", (), "biological_process"),
    GoTerm("0003674", "molecular_function", (), "molecular_function"),
    GoTerm("0005575", "cellular_component", (), "cellular_component"),
    # Biological-process slice relevant to genome analysis.
    GoTerm("0008152", "metabolic process", ("0008150",)),
    GoTerm("0006139", "nucleobase-containing compound metabolic process", ("0008152",)),
    GoTerm("0006259", "DNA metabolic process", ("0006139",)),
    GoTerm("0006260", "DNA replication", ("0006259",)),
    GoTerm("0006281", "DNA repair", ("0006259",)),
    GoTerm("0006310", "DNA recombination", ("0006259",)),
    GoTerm("0016070", "RNA metabolic process", ("0006139",)),
    GoTerm("0006397", "mRNA processing", ("0016070",)),
    GoTerm("0008380", "RNA splicing", ("0016070",)),
    GoTerm("0010467", "gene expression", ("0008150",)),
    GoTerm("0006412", "translation", ("0010467",)),
    GoTerm("0007049", "cell cycle", ("0008150",)),
    GoTerm("0008283", "cell population proliferation", ("0008150",)),
    GoTerm("0006915", "apoptotic process", ("0008150",)),
    GoTerm("0007165", "signal transduction", ("0008150",)),
    GoTerm("0035556", "intracellular signal transduction", ("0007165",)),
    # Molecular-function slice.
    GoTerm("0005488", "binding", ("0003674",), "molecular_function"),
    GoTerm("0003677", "DNA binding", ("0005488",), "molecular_function"),
    GoTerm("0003723", "RNA binding", ("0005488",), "molecular_function"),
    GoTerm("0005515", "protein binding", ("0005488",), "molecular_function"),
    GoTerm("0003824", "catalytic activity", ("0003674",), "molecular_function"),
    GoTerm("0004672", "protein kinase activity", ("0003824",), "molecular_function"),
    GoTerm("0016887", "ATP hydrolysis activity", ("0003824",), "molecular_function"),
    # Cellular-component slice.
    GoTerm("0005622", "intracellular anatomical structure", ("0005575",), "cellular_component"),
    GoTerm("0005634", "nucleus", ("0005622",), "cellular_component"),
    GoTerm("0005694", "chromosome", ("0005622",), "cellular_component"),
    GoTerm("0005737", "cytoplasm", ("0005622",), "cellular_component"),
)

_LABEL_PRED = RDFS.label


def load_gene_ontology(store: TripleStore | None = None) -> Ontology:
    """Build the GO slice as an :class:`Ontology` over *store*.

    Each term becomes an OWL class named ``GO_<accession>`` with its is_a
    parents as ``rdfs:subClassOf`` and its label as ``rdfs:label``.
    """
    onto = Ontology(GO, store=store, name="gene-ontology")
    onto.store.bind_prefix("go", GO.base)
    classes = {}
    for term in GO_TERMS:
        cls = onto.declare_class(term.accession)
        classes[term.accession] = cls
        onto.store.add(cls, _LABEL_PRED, term.label)
        onto.store.add(cls, GO["aspect"], term.aspect)
    for term in GO_TERMS:
        for parent in term.parents:
            if parent not in classes:
                raise ValueError(
                    f"GO term {term.accession} references unknown parent {parent}"
                )
            onto.store.add(classes[term.accession], RDFS.subClassOf, classes[parent])
    return onto

