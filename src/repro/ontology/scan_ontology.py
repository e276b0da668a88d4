"""The SCAN semantic model: domain ontology, cloud ontology and linker.

Paper Section II-C defines the SCAN semantic model as::

    Active Ontology ::=
        'Ontology(' [ domain ] ')'
      | 'Ontology(' [ cloud ] ')'
      | 'SCAN(' { linker } ')'

The **domain ontology** describes biological data types/formats, the
bio-applications that consume them and genome-analysis workflows; it extends
the Gene Ontology slice.  The **cloud ontology** describes middleware
services, computing/storage resources, networks and usage policies.  The
**linker** relates domain entities to cloud entities (e.g. which resource a
workflow requires).

All three live in one :class:`~repro.ontology.triples.TripleStore` under
the SCAN namespace, matching how SCAN queries span both ontologies (the
paper's SPARQL example retrieves GATK instances *along with* CPU and RAM
resource attributes); :func:`build_scan_ontology` declares them in three
sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.ontology.gene_ontology import load_gene_ontology
from repro.ontology.model import Individual, Ontology
from repro.ontology.triples import RDFS, Namespace, TripleStore

__all__ = [
    "SCAN",
    "ScanOntology",
    "build_scan_ontology",
    "add_application_instance",
]

#: The paper's ontology namespace.
SCAN = Namespace("http://www.semanticweb.org/wxing/ontologies/scan-ontology#")

#: Data formats handled by the SCAN data flow (Figures 1 and 2).
DATA_FORMATS = ("FASTQ", "FASTA", "BAM", "SAM", "VCF", "MGF", "TIFF", "CSV")

#: The four data-process families of Section III.
ANALYSIS_TYPES = (
    "GenomeAnalysis",
    "ProteomeAnalysis",
    "ImagingAnalysis",
    "IntegrativeAnalysis",
)

#: The >10 genome-analysis workflows the paper says the ontology defines,
#: "including workflows like data variation detection analysis and miRNA
#: fusion detection workflows".
DEFAULT_WORKFLOWS = (
    ("VariationDetection", "GenomeAnalysis"),
    ("MiRNAFusionDetection", "GenomeAnalysis"),
    ("SomaticMutationCalling", "GenomeAnalysis"),
    ("GermlineVariantCalling", "GenomeAnalysis"),
    ("CopyNumberAnalysis", "GenomeAnalysis"),
    ("StructuralVariantDetection", "GenomeAnalysis"),
    ("RNASeqExpression", "GenomeAnalysis"),
    ("ExomeAnalysis", "GenomeAnalysis"),
    ("WholeGenomeAnalysis", "GenomeAnalysis"),
    ("MethylationAnalysis", "GenomeAnalysis"),
    ("PeptideIdentification", "ProteomeAnalysis"),
    ("ProteinQuantification", "ProteomeAnalysis"),
    ("CellPhenotypeProfiling", "ImagingAnalysis"),
    ("NetworkIntegration", "IntegrativeAnalysis"),
)


@dataclass
class ScanOntology:
    """The assembled SCAN semantic model.

    ``scan`` is the view of the SCAN namespace (domain ontology, cloud
    ontology and linker); ``gene_ontology`` the view of the GO slice.
    Both read and write ``store``.
    """

    store: TripleStore
    scan: Ontology
    gene_ontology: Ontology

    def application_instances(self, app_name: Optional[str] = None) -> list[Individual]:
        """All Application individuals, optionally filtered by appName."""
        individuals = self.scan.individuals_of(SCAN["Application"])
        if app_name is None:
            return individuals
        return [i for i in individuals if i.get("appName") == app_name]


def build_scan_ontology(include_gene_ontology: bool = True) -> ScanOntology:
    """Create the full SCAN semantic model with its default vocabulary.

    Returns a :class:`ScanOntology` whose shared store carries:

    - the GO slice (unless disabled),
    - domain classes: BiologicalData (+ per-format subclasses,
      AlignedGenomicData), Application, Workflow (+ the four analysis
      types), and the >10 default workflow individuals,
    - cloud classes: CloudService, ComputingResource (CPU, RAM),
      StorageResource, Network, UsagePolicy, ResourceTier and the
      private/public tier individuals,
    - linker properties: requiredBy, requiresResource, consumesFormat,
      producesFormat, runsOn.
    """
    store = TripleStore("scan")
    store.bind_prefix("scan-ontology", SCAN.base)
    store.bind_prefix("scan", SCAN.base)

    gene_onto = (
        load_gene_ontology(store)
        if include_gene_ontology
        else Ontology(SCAN, store=store, name="no-go")
    )

    scan = Ontology(SCAN, store=store, name="scan")

    # -- domain ontology ----------------------------------------------------
    bio_data = scan.declare_class("BiologicalData")
    aligned = scan.declare_class("AlignedGenomicData", parent=bio_data)
    for fmt in DATA_FORMATS:
        cls = scan.declare_class(f"{fmt}Data", parent=bio_data)
        if fmt in ("BAM", "SAM"):
            store.add(cls, RDFS.subClassOf, aligned)

    application = scan.declare_class("Application")
    workflow = scan.declare_class("Workflow")
    analysis_classes = {}
    for analysis in ANALYSIS_TYPES:
        analysis_classes[analysis] = scan.declare_class(analysis, parent=workflow)

    # Datatype properties used by the paper's listings.
    for name in ("inputFileSize", "steps", "RAM", "eTime", "CPU"):
        scan.declare_datatype_property(name, domain=application)
    scan.declare_datatype_property("performance", domain=application)
    scan.declare_datatype_property("appName", domain=application)
    scan.declare_datatype_property("threads", domain=application)
    scan.declare_datatype_property("stage", domain=application)
    scan.declare_datatype_property("workflowName", domain=workflow)

    # -- cloud ontology -------------------------------------------------------
    cloud_service = scan.declare_class("CloudService")
    computing = scan.declare_class("ComputingResource", parent=cloud_service)
    scan.declare_class("CPUResource", parent=computing)
    scan.declare_class("RAMResource", parent=computing)
    scan.declare_class("StorageResource", parent=cloud_service)
    scan.declare_class("Network", parent=cloud_service)
    scan.declare_class("UsagePolicy")
    tier = scan.declare_class("ResourceTier")
    scan.declare_datatype_property("corePrice", domain=tier)
    scan.declare_datatype_property("coreCount", domain=tier)
    scan.declare_datatype_property("tierKind", domain=tier)

    private = scan.individual("PrivateTier", tier)
    private.set("tierKind", "private").set("corePrice", 5.0).set("coreCount", 624)
    public = scan.individual("PublicTier", tier)
    public.set("tierKind", "public").set("corePrice", 50.0).set("coreCount", 1_000_000)

    # -- linker ----------------------------------------------------------------
    scan.declare_object_property("requiredBy", domain=computing, range_=workflow)
    scan.declare_object_property("requiresResource", domain=workflow, range_=computing)
    scan.declare_object_property("consumesFormat", domain=application, range_=bio_data)
    scan.declare_object_property("producesFormat", domain=application, range_=bio_data)
    scan.declare_object_property("runsOn", domain=application, range_=tier)

    # Default workflow individuals (the paper's "over 10 different genome
    # analysis workflows ... as instances of the class GenomeAnalysis").
    for wf_name, analysis in DEFAULT_WORKFLOWS:
        ind = scan.individual(wf_name, analysis_classes[analysis])
        ind.set("workflowName", wf_name)

    # The AlignedGenomicData -> GATK linkage from Section III-A.1.ii: the
    # class has a CPU property "that is requiredBy GATK workflows".
    store.add(SCAN["AlignedGenomicData"], SCAN["requiredBy"], SCAN["VariationDetection"])

    return ScanOntology(store=store, scan=scan, gene_ontology=gene_onto)


def add_application_instance(
    onto: ScanOntology,
    name: str,
    *,
    app_name: str,
    input_file_size: float,
    e_time: float,
    cpu: int,
    ram: float,
    steps: int = 1,
    threads: Optional[int] = None,
    stage: Optional[int] = None,
    performance: Optional[str] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> Individual:
    """Add one Application individual (a GATK1-style profiling record).

    Mirrors the paper's OWL listing: ``inputFileSize``, ``steps``, ``RAM``,
    ``eTime`` and ``CPU`` datatype properties on an ``owl:NamedIndividual``
    typed ``scan:Application``.
    """
    ind = onto.scan.individual(name, SCAN["Application"])
    ind.set("appName", app_name)
    ind.set("inputFileSize", float(input_file_size))
    ind.set("eTime", float(e_time))
    ind.set("CPU", int(cpu))
    ind.set("RAM", float(ram))
    ind.set("steps", int(steps))
    if threads is not None:
        ind.set("threads", int(threads))
    if stage is not None:
        ind.set("stage", int(stage))
    if performance is not None:
        ind.set("performance", performance)
    if extra:
        for key, value in extra.items():
            ind.set(key, value)  # type: ignore[arg-type]
    return ind

