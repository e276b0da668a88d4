"""Knowledge-base expansion from the platform's task log.

"In order to enrich the knowledge base, the SCAN keeps the log information
of each task scheduled to run in a cloud.  The log information will be used
to further populate the SCAN knowledge-base" (paper Section III-A.1.i).

The platform's log is its typed :class:`~repro.core.bus.EventBus`.
:class:`KnowledgeIngestor` subscribes to
:class:`~repro.core.bus.StageCompleted` and turns each completed stage into
a :class:`ProfileObservation`, so the KB's fits sharpen as the platform
runs -- the paper's GATK1 -> GATK2 -> GATK3 -> GATK4 expansion happens
live.  The event is keyed the way the stage models are: by the node's fact
scope (the application name on a chain), its in-app stage, and the node's
scaled input in GB.
"""

from __future__ import annotations

from typing import Optional

from repro.core.bus import EventBus, StageCompleted
from repro.knowledge.kb import SCANKnowledgeBase
from repro.knowledge.profiles import ProfileObservation

__all__ = ["KnowledgeIngestor"]


class KnowledgeIngestor:
    """Streams completed-stage events into the knowledge base."""

    def __init__(
        self,
        kb: SCANKnowledgeBase,
        bus: Optional[EventBus] = None,
        sample_every: int = 1,
    ) -> None:
        """Create an ingestor; attaches to *bus* immediately if given.

        ``sample_every=k`` ingests every k-th completed stage -- useful in
        long simulations where recording all ~10^5 stage completions as
        ontology individuals would bloat the store without improving fits.
        """
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.kb = kb
        self.sample_every = sample_every
        self._seen = 0
        self.ingested = 0
        if bus is not None:
            self.attach(bus)

    def attach(self, bus: EventBus) -> None:
        """Subscribe to *bus*'s :class:`StageCompleted` events."""
        bus.subscribe(StageCompleted, self._on_stage_completed)

    def _on_stage_completed(self, event: StageCompleted) -> None:
        self._seen += 1
        if (self._seen - 1) % self.sample_every != 0:
            return
        self.kb.record_observation(
            ProfileObservation(
                app=event.app,
                stage=event.stage,
                input_gb=event.input_gb,
                threads=event.threads,
                execution_time=event.duration,
                cpu=event.threads,
            )
        )
        self.ingested += 1
