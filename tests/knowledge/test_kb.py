"""Tests for the SCAN knowledge base."""

import pytest

from repro.core.errors import KnowledgeBaseError
from repro.desim.rng import RandomStreams
from repro.knowledge.kb import SCANKnowledgeBase
from repro.knowledge.profiles import ProfileObservation


@pytest.fixture
def kb():
    return SCANKnowledgeBase()


def observation(stage=0, size=5.0, threads=1, time=10.0, app="gatk"):
    return ProfileObservation(
        app=app, stage=stage, input_gb=size, threads=threads,
        execution_time=time, cpu=8, ram_gb=4.0,
    )


class TestRecording:
    def test_individuals_named_like_paper(self, kb):
        names = [kb.record_observation(observation()) for _ in range(3)]
        assert names == ["GATK1", "GATK2", "GATK3"]

    def test_independent_counters_per_app(self, kb):
        kb.record_observation(observation(app="gatk"))
        name = kb.record_observation(observation(app="bwa"))
        assert name == "BWA1"

    def test_observation_lands_in_ontology(self, kb):
        kb.record_observation(observation(size=10.0, time=180.0))
        ind = kb.ontology.scan.get_individual("GATK1")
        assert ind is not None
        assert ind.get("inputFileSize") == 10.0
        assert ind.get("eTime") == 180.0

    def test_observation_lands_in_profile(self, kb):
        kb.record_observation(observation())
        assert kb.has_profile("gatk")
        assert len(kb.profile("gatk")) == 1

    def test_instance_count(self, kb):
        kb.record_observation(observation(app="gatk"))
        kb.record_observation(observation(app="bwa"))
        assert kb.instance_count() == 2
        assert kb.instance_count("gatk") == 1


class TestBootstrap:
    def test_bootstrap_recovers_table2(self, kb, gatk_model):
        n = kb.bootstrap_from_model(gatk_model)
        assert n == 7 * 9 * 5
        fitted = kb.fitted_stage_models("gatk")
        assert len(fitted) == 7
        for original, fit in zip(gatk_model.stages, fitted):
            assert fit.a == pytest.approx(original.a, abs=0.02)
            assert fit.c == pytest.approx(original.c, abs=0.05)

    def test_noisy_bootstrap_close(self, kb, gatk_model):
        rng = RandomStreams(5).stream("profiling")
        kb.bootstrap_from_model(gatk_model, noise_fraction=0.05, rng=rng)
        fitted = kb.fitted_stage_models("gatk")
        for original, fit in zip(gatk_model.stages, fitted):
            assert fit.a == pytest.approx(original.a, rel=0.2, abs=0.05)

    def test_noise_requires_rng(self, kb, gatk_model):
        with pytest.raises(ValueError):
            kb.bootstrap_from_model(gatk_model, noise_fraction=0.1)

    def test_no_profile_raises(self, kb):
        with pytest.raises(KnowledgeBaseError):
            kb.fitted_stage_models("gatk")


class TestQueries:
    def test_ranked_instances_order(self, kb):
        for size, etime in [(10, 180), (5, 200), (20, 280), (4, 80)]:
            kb.record_observation(observation(size=size, time=etime))
        rows = kb.ranked_instances("gatk")
        assert [r["etime"] for r in rows] == [80.0, 180.0, 200.0, 280.0]

    def test_ranked_instances_size_filter(self, kb):
        for size in (1, 5, 10, 20):
            kb.record_observation(observation(size=size))
        rows = kb.ranked_instances("gatk", min_size_gb=4, max_size_gb=12)
        assert sorted(r["size"] for r in rows) == [5.0, 10.0]

    def test_ranked_instances_limit(self, kb):
        for i in range(5):
            kb.record_observation(observation(time=float(i)))
        assert len(kb.ranked_instances("gatk", limit=2)) == 2

    def test_app_filter_excludes_other_apps(self, kb):
        kb.record_observation(observation(app="gatk"))
        kb.record_observation(observation(app="bwa"))
        assert len(kb.ranked_instances("gatk")) == 1

    def test_raw_sparql_query(self, kb):
        kb.record_observation(observation(size=10.0))
        rows = kb.query(
            """
            PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
            SELECT ?s WHERE { ?i scan:inputFileSize ?s }
            """
        )
        assert rows == [{"s": 10.0}]
