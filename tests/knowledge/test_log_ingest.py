"""Tests for knowledge-base expansion from the task log (the event bus)."""

import pytest

from repro.core.bus import (
    EventBus,
    EventRecorder,
    JobCompleted,
    StageCompleted,
    WorkerHired,
)
from repro.core.presets import make_preset
from repro.knowledge.kb import SCANKnowledgeBase
from repro.knowledge.log_ingest import KnowledgeIngestor
from repro.sim.session import SimulationSession


def stage_completed(bus, time=1.0, **overrides):
    fields = dict(
        job="j", app="gatk", stage=0, input_gb=5.0, threads=4, duration=12.5,
    )
    fields.update(overrides)
    bus.publish(StageCompleted(time, **fields))


def kb_observations(kb, apps):
    """Every observation the KB holds under *apps*, as event-shaped tuples."""
    return [
        (obs.app, obs.stage, obs.input_gb, obs.threads, obs.execution_time)
        for app in sorted(apps)
        for stage in kb.profile(app).stage_indices
        for obs in kb.profile(app).stage(stage).observations
    ]


class TestIngestion:
    def test_stage_completed_creates_individual(self):
        kb = SCANKnowledgeBase()
        bus = EventBus()
        ingestor = KnowledgeIngestor(kb, bus)
        stage_completed(bus)
        assert ingestor.ingested == 1
        assert kb.instance_count("gatk") == 1
        ind = kb.ontology.scan.get_individual("GATK1")
        assert ind.get("eTime") == 12.5
        assert ind.get("threads") == 4

    def test_other_events_ignored(self):
        kb = SCANKnowledgeBase()
        bus = EventBus()
        ingestor = KnowledgeIngestor(kb, bus)
        bus.publish(JobCompleted(0.0, "j1", 5.0, 10.0, 1.0))
        bus.publish(WorkerHired(1.0, 1, "private", 4, 0))
        assert ingestor.ingested == 0

    def test_sampling_every_k(self):
        kb = SCANKnowledgeBase()
        bus = EventBus()
        ingestor = KnowledgeIngestor(kb, bus, sample_every=3)
        for i in range(9):
            stage_completed(bus, time=float(i))
        assert ingestor.ingested == 3

    def test_bad_sampling_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeIngestor(SCANKnowledgeBase(), sample_every=0)

    def test_profile_grows_with_ingestion(self):
        """The paper's GATK1->GATK4 expansion sharpens the fits."""
        kb = SCANKnowledgeBase()
        bus = EventBus()
        KnowledgeIngestor(kb, bus)
        # eTime linear in input: 2 GB -> 20, 4 GB -> 40, 8 GB -> 80.
        for i, (size, time) in enumerate([(2.0, 20.0), (4.0, 40.0), (8.0, 80.0)]):
            stage_completed(bus, time=float(i), input_gb=size, threads=1,
                            duration=time)
        fit = kb.profile("gatk").stage(0).linear_fit
        assert fit.slope == pytest.approx(10.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)


class TestDagSessionFeed:
    def test_observations_are_the_nodes_scope_stage_and_scaled_input(self):
        """A DAG node's KB record uses the node's scope, its in-app stage
        and its scaled input, exactly as StageCompleted carries them."""
        config = make_preset("fanout").with_overrides(
            simulation={"duration": 60.0}
        )
        kb = SCANKnowledgeBase()
        ingestor = KnowledgeIngestor(kb)
        recorder = EventRecorder()
        session = SimulationSession(
            config,
            observers=[
                lambda bus, p: recorder.attach(bus, [StageCompleted]),
                lambda bus, p: ingestor.attach(bus),
            ],
        )
        session.run(seed=1)

        completed = [
            (e.app, e.stage, e.input_gb, e.threads, e.duration)
            for e in recorder.of_type(StageCompleted)
        ]
        assert completed
        observed = kb_observations(kb, {app for app, *_ in completed})
        assert kb.instance_count() == len(observed) == ingestor.ingested
        assert sorted(observed) == sorted(completed)

        workflow = session.builder.workflow
        scaled = {n.scope for n in workflow.nodes if n.input_scale != 1.0}
        assert scaled
        assert any(app in scaled for app, *_ in observed)
