"""The SCAN knowledge base: semantic store + quantitative profiles.

Observations enter twice, deliberately:

1. As **ontology individuals** (``GATK1``, ``GATK2``, ... typed
   ``scan:Application`` with ``inputFileSize``/``steps``/``RAM``/``eTime``/
   ``CPU`` datatype properties), exactly as the paper's OWL listings show.
   These are what SPARQL queries rank.
2. As **profile observations** feeding the regression fits
   (:mod:`repro.knowledge.profiles`), which is what the scheduler's
   estimator and the shard advisor consume numerically.

Knowledge leaves a run as the knowledge plane's JSON snapshot
(:meth:`repro.knowledge.plane.KnowledgePlane.snapshot`, written by
``scan-sim kb --snapshot-out``); this store is not persisted.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional

from repro.apps.base import ApplicationModel, StageModel
from repro.core.errors import KnowledgeBaseError
from repro.knowledge.profiles import ApplicationProfile, ProfileObservation
from repro.ontology.scan_ontology import (
    SCAN,
    ScanOntology,
    add_application_instance,
    build_scan_ontology,
)
from repro.ontology.sparql import execute_query

__all__ = ["SCANKnowledgeBase"]


class SCANKnowledgeBase:
    """Ontology-backed store of application knowledge.

    Parameters
    ----------
    ontology:
        An existing :class:`ScanOntology`; a fresh one is built if omitted.
    """

    def __init__(self, ontology: Optional[ScanOntology] = None) -> None:
        self.ontology = ontology if ontology is not None else build_scan_ontology()
        self._profiles: dict[str, ApplicationProfile] = {}
        self._instance_counter: dict[str, itertools.count] = {}

    # -- observation ingestion ---------------------------------------------
    def record_observation(self, obs: ProfileObservation) -> str:
        """Store one profiled/logged run; returns the new individual's name.

        Individuals are named ``<APP><n>`` (GATK1, GATK2, ...) matching the
        paper's knowledge-base expansion listings.
        """
        profile = self.profile(obs.app)
        profile.add(obs)

        counter = self._instance_counter.setdefault(
            obs.app, itertools.count(1)
        )
        name = f"{obs.app.upper()}{next(counter)}"
        add_application_instance(
            self.ontology,
            name,
            app_name=obs.app,
            input_file_size=obs.input_gb,
            e_time=obs.execution_time,
            cpu=obs.cpu,
            ram=obs.ram_gb,
            steps=1,
            threads=obs.threads,
            stage=obs.stage,
        )
        return name

    def profile(self, app: str) -> ApplicationProfile:
        """The (mutable) quantitative profile for *app*."""
        profile = self._profiles.get(app)
        if profile is None:
            profile = ApplicationProfile(app)
            self._profiles[app] = profile
        return profile

    def has_profile(self, app: str) -> bool:
        """Whether any observations exist for *app*."""
        return app in self._profiles and len(self._profiles[app]) > 0

    # -- profiling bootstrap -------------------------------------------------
    def bootstrap_from_model(
        self,
        model: ApplicationModel,
        input_sizes_gb: Iterable[float] = (1, 2, 3, 4, 5, 6, 7, 8, 9),
        thread_counts: Iterable[int] = (1, 2, 4, 8, 16),
        noise_fraction: float = 0.0,
        rng: Any = None,
    ) -> int:
        """Seed the KB by 'profiling' an analytical model offline.

        This reproduces the paper's initial KB creation: runs of 1-9 GB
        inputs across thread counts, with optional multiplicative noise so
        the regression has realistic work to do.  Returns the number of
        observations recorded.
        """
        if noise_fraction < 0:
            raise ValueError("noise_fraction must be >= 0")
        if noise_fraction > 0 and rng is None:
            raise ValueError("noisy profiling requires an rng")
        n = 0
        for stage in model.stages:
            for size in input_sizes_gb:
                for threads in thread_counts:
                    time = stage.threaded_time(threads, float(size))
                    if noise_fraction > 0:
                        time *= 1.0 + noise_fraction * float(rng.normal())
                        time = max(time, 1e-6)
                    self.record_observation(
                        ProfileObservation(
                            app=model.name,
                            stage=stage.index,
                            input_gb=float(size),
                            threads=int(threads),
                            execution_time=time,
                            ram_gb=stage.ram_gb,
                        )
                    )
                    n += 1
        return n

    def fitted_stage_models(self, app: str, ram_gb: float = 4.0) -> list[StageModel]:
        """Stage models recovered from the recorded profile data."""
        profile = self.profile(app)
        if not profile.stage_indices:
            raise KnowledgeBaseError(f"no profile data for application {app!r}")
        return [
            profile.stage(i).to_stage_model(ram_gb=ram_gb)
            for i in profile.stage_indices
        ]

    # -- semantic queries ------------------------------------------------------
    def query(self, sparql: str) -> list[dict[str, Any]]:
        """Run a SPARQL-subset query against the semantic store."""
        return execute_query(self.ontology.store, sparql)

    def ranked_instances(
        self,
        app: str,
        min_size_gb: float = 0.0,
        max_size_gb: float = float("inf"),
        limit: Optional[int] = None,
    ) -> list[dict[str, Any]]:
        """Application instances ranked by execution time then input size.

        This is the paper's Data Broker query: "The selected GATK instances
        are ranked according to the values of their execution time and the
        size of input files."
        """
        limit_clause = f"LIMIT {limit}" if limit is not None else ""
        upper = 1e18 if max_size_gb == float("inf") else max_size_gb
        sparql = f"""
        PREFIX scan: <{SCAN.base}>
        SELECT ?instance ?size ?etime ?cpu ?ram
        WHERE {{
            ?instance rdf:type scan:Application .
            ?instance scan:appName "{app}" .
            ?instance scan:inputFileSize ?size .
            ?instance scan:eTime ?etime .
            OPTIONAL {{ ?instance scan:CPU ?cpu . }}
            OPTIONAL {{ ?instance scan:RAM ?ram . }}
            FILTER (?size >= {min_size_gb} && ?size <= {upper})
        }}
        ORDER BY ASC(?etime) ASC(?size)
        {limit_clause}
        """
        return self.query(sparql)

    def instance_count(self, app: Optional[str] = None) -> int:
        """Number of Application individuals (optionally for one app)."""
        return len(self.ontology.application_instances(app))

