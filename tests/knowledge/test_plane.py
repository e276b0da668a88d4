"""Tests for the knowledge plane: facts, refitting, providers, drift."""

import pytest

from repro.analysis.amdahl import amdahl_time
from repro.core.bus import EventBus, StageCompleted
from repro.core.errors import ConfigurationError, KnowledgeBaseError
from repro.knowledge.kb import SCANKnowledgeBase
from repro.knowledge.plane import (
    ESTIMATE_PROVIDERS,
    AdaptiveEstimateProvider,
    FactProvider,
    KnowledgePlane,
    OnlineRefitter,
    StageFact,
    StaticEstimateProvider,
    diff_snapshots,
    drifted_model,
    fit_stage_fact,
    make_estimate_provider,
)
from repro.knowledge.profiles import ProfileObservation
from repro.workflows.compiled import chain_of


def fact(app="gatk", stage=0, a=2.0, b=1.0, c=0.9, **kw):
    return StageFact(app=app, stage=stage, a=a, b=b, c=c, **kw)


class TestStageFact:
    def test_predict_single_thread_is_linear(self):
        assert fact(a=2.0, b=1.0).predict(3.0) == pytest.approx(7.0)

    def test_predict_threads_without_c_ignores_threads(self):
        f = fact(c=None)
        assert f.predict(3.0, threads=8) == f.predict(3.0)

    def test_predict_applies_amdahl(self):
        f = fact(a=2.0, b=1.0, c=0.8)
        assert f.predict(3.0, threads=4) == pytest.approx(
            amdahl_time(7.0, 4, 0.8)
        )

    def test_predict_floors_nonpositive_base(self):
        # Raw regression output can be negative at small sizes.
        assert fact(a=-10.0, b=0.0).predict(1.0) == pytest.approx(1e-6)

    def test_to_stage_model_clamps(self):
        model = fact(a=-1.0, b=2.0, c=1.5).to_stage_model()
        assert model.a == 0.0
        assert model.c == 1.0
        model = fact(c=None).to_stage_model()
        assert model.c == 0.0

    def test_as_dict_is_complete(self):
        d = fact(provenance="refit", samples=9, confidence=0.5).as_dict()
        assert d["provenance"] == "refit"
        assert d["samples"] == 9
        assert d["confidence"] == 0.5
        assert set(d) == {
            "app", "stage", "a", "b", "c", "ram_gb",
            "provenance", "samples", "confidence", "epoch",
        }


class TestKnowledgePlane:
    def test_starts_empty_at_epoch_zero(self):
        plane = KnowledgePlane()
        assert plane.epoch == 0
        assert len(plane) == 0
        assert plane.get("gatk", 0) is None

    def test_install_bumps_epoch_and_stamps_facts(self):
        plane = KnowledgePlane()
        assert plane.install([fact(stage=0), fact(stage=1)]) == 1
        assert plane.epoch == 1
        assert plane.get("gatk", 0).epoch == 1
        assert plane.install([fact(stage=0, a=3.0)]) == 2
        assert plane.get("gatk", 0).a == 3.0
        assert plane.get("gatk", 1).epoch == 1  # untouched fact keeps its stamp

    def test_empty_install_is_a_noop(self):
        plane = KnowledgePlane()
        plane.install([fact()])
        assert plane.install([]) == 1
        assert plane.epoch == 1

    def test_seed_from_workflow_copies_coefficients(self, gatk_model):
        plane = KnowledgePlane()
        plane.seed_from_workflow(chain_of(gatk_model))
        assert len(plane) == gatk_model.n_stages
        for stage in gatk_model.stages:
            f = plane.get(gatk_model.name, stage.index)
            assert (f.a, f.b, f.c) == (stage.a, stage.b, stage.c)
            assert f.provenance == "model"
            assert f.samples == 0

    def test_seed_from_workflow_fills_only_missing_nodes(self, gatk_model):
        plane = KnowledgePlane()
        plane.install([fact(app=gatk_model.name, stage=0, a=9.0,
                            provenance="refit")])
        assert plane.seed_from_workflow(chain_of(gatk_model)) == 2
        assert plane.get(gatk_model.name, 0).provenance == "refit"
        assert len(plane) == gatk_model.n_stages
        # Every node covered: nothing installed, the epoch stays put.
        assert plane.seed_from_workflow(chain_of(gatk_model)) == 2

    def test_facts_sorted_and_filtered(self):
        plane = KnowledgePlane()
        plane.install([fact(app="bwa", stage=1), fact(app="bwa", stage=0),
                       fact(app="gatk", stage=0)])
        assert [(f.app, f.stage) for f in plane.facts()] == [
            ("bwa", 0), ("bwa", 1), ("gatk", 0)
        ]
        assert [f.stage for f in plane.facts("bwa")] == [0, 1]
        assert plane.apps() == ["bwa", "gatk"]

    def test_snapshot_shape(self, gatk_model):
        plane = KnowledgePlane()
        plane.seed_from_workflow(chain_of(gatk_model))
        snap = plane.snapshot()
        assert snap["epoch"] == 1
        assert len(snap["facts"]) == gatk_model.n_stages


def profiled_kb(app="gatk", a=3.0, b=1.0, stage=0):
    """A KB with enough observations for a perfect linear stage fit."""
    kb = SCANKnowledgeBase()
    for size in (2.0, 4.0, 6.0, 8.0):
        kb.record_observation(ProfileObservation(
            app=app, stage=stage, input_gb=size, threads=1,
            execution_time=a * size + b, cpu=8, ram_gb=4.0,
        ))
    return kb


class TestSeedFromProfiles:
    def test_profile_fit_becomes_fact(self):
        plane = KnowledgePlane()
        plane.seed_from_profiles(profiled_kb(), "gatk")
        f = plane.get("gatk", 0)
        assert f.a == pytest.approx(3.0)
        assert f.b == pytest.approx(1.0)
        assert f.provenance == "profile"
        assert f.samples == 4
        assert f.confidence == pytest.approx(1.0)

    def test_unknown_app_is_a_noop(self):
        plane = KnowledgePlane()
        assert plane.seed_from_profiles(SCANKnowledgeBase(), "nope") == 0

    def test_reseed_never_rolls_back_refit_facts(self):
        # On a shared plane, a broker reseed must not clobber the online
        # refitter's trace-derived coefficients with offline profile fits.
        plane = KnowledgePlane()
        plane.install([fact(a=9.0, provenance="refit", samples=32)])
        plane.seed_from_profiles(profiled_kb(), "gatk")
        f = plane.get("gatk", 0)
        assert f.provenance == "refit"
        assert f.a == 9.0


class TestDiffSnapshots:
    def test_identical_snapshots_diff_empty(self, gatk_model):
        plane = KnowledgePlane()
        plane.seed_from_workflow(chain_of(gatk_model))
        assert diff_snapshots(plane.snapshot(), plane.snapshot()) == []

    def test_changed_fact_and_epoch_reported(self, gatk_model):
        plane = KnowledgePlane()
        plane.seed_from_workflow(chain_of(gatk_model))
        before = plane.snapshot()
        plane.install([fact(app=gatk_model.name, stage=0, a=99.0,
                            provenance="refit", samples=8)])
        lines = diff_snapshots(before, plane.snapshot())
        assert lines[0] == "epoch: 1 -> 2"
        assert any(line.startswith("~ ") and "a:" in line for line in lines)

    def test_added_and_removed_facts(self):
        a = {"epoch": 1, "facts": [fact(stage=0).as_dict()]}
        b = {"epoch": 1, "facts": [fact(stage=1).as_dict()]}
        lines = diff_snapshots(a, b)
        assert any(line.startswith("- gatk stage 0") for line in lines)
        assert any(line.startswith("+ gatk stage 1") for line in lines)


class TestFitStageFact:
    def test_recovers_generating_coefficients(self):
        obs = [(size, 1, 2.5 * size + 4.0) for size in (1.0, 3.0, 5.0, 7.0)]
        f = fit_stage_fact("gatk", 0, obs)
        assert f.a == pytest.approx(2.5)
        assert f.b == pytest.approx(4.0)
        assert f.provenance == "refit"
        assert f.samples == 4
        assert f.confidence == pytest.approx(1.0)

    def test_too_few_observations_returns_none(self):
        obs = [(1.0, 1, 5.0), (2.0, 1, 7.0)]
        assert fit_stage_fact("gatk", 0, obs, min_samples=4) is None

    def test_single_distinct_size_returns_none(self):
        obs = [(5.0, 1, 10.0 + i) for i in range(6)]
        assert fit_stage_fact("gatk", 0, obs) is None

    def test_multithreaded_durations_are_de_amdahled(self):
        # Truth: base = 2 d + 3, run at 4 threads under c = 0.8.  The prior
        # carries c, so the fit should recover the single-threaded a/b.
        prior = fact(a=1.0, b=1.0, c=0.8)
        obs = [
            (size, 4, amdahl_time(2.0 * size + 3.0, 4, 0.8))
            for size in (1.0, 2.0, 4.0, 8.0)
        ]
        f = fit_stage_fact("gatk", 0, obs, prior=prior)
        assert f.a == pytest.approx(2.0)
        assert f.b == pytest.approx(3.0)
        assert f.c == 0.8
        assert f.ram_gb == prior.ram_gb


def completed(stage, size, duration, threads=1, app="gatk", tier=""):
    return StageCompleted(
        time=0.0, job="j", app=app, stage=stage,
        input_gb=size, threads=threads, duration=duration, tier=tier,
    )


class TestOnlineRefitter:
    def test_cadence_validation(self):
        plane = KnowledgePlane()
        with pytest.raises(ValueError):
            OnlineRefitter(plane, refit_every=0)
        with pytest.raises(ValueError):
            OnlineRefitter(plane, min_samples=1)
        # A window smaller than min_samples could never fit.
        with pytest.raises(
            ValueError, match="max_observations must be >= min_samples"
        ):
            OnlineRefitter(plane, min_samples=4, max_observations=3)
        OnlineRefitter(plane, min_samples=4, max_observations=4)

    def test_bus_events_refit_the_plane(self):
        plane = KnowledgePlane()
        bus = EventBus()
        refitter = OnlineRefitter(
            plane, refit_every=4, min_samples=4
        ).attach(bus)
        for size in (2.0, 4.0, 6.0, 8.0):
            bus.publish(completed(0, size, 3.0 * size + 1.0))
        assert refitter.observed == 4
        assert refitter.refits == 1
        assert plane.epoch == 1
        f = plane.get("gatk", 0)
        assert f.provenance == "refit"
        assert f.a == pytest.approx(3.0)
        assert f.b == pytest.approx(1.0)

    def test_refit_history_is_recorded(self):
        plane = KnowledgePlane()
        plane.install([fact(a=1.0, b=1.0, c=None)])
        refitter = OnlineRefitter(plane, refit_every=100, min_samples=4)
        for size in (2.0, 4.0, 6.0, 8.0):
            refitter.observe("gatk", 0, size, 1, 3.0 * size + 1.0)
        refitter.flush()
        assert len(plane.history) == 1
        record = plane.history[0]
        assert (record.old_a, record.old_b) == (1.0, 1.0)
        assert record.new_a == pytest.approx(3.0)
        assert record.epoch == plane.epoch

    def test_insufficient_data_does_not_move_epoch(self):
        plane = KnowledgePlane()
        refitter = OnlineRefitter(plane, refit_every=2, min_samples=8)
        refitter.observe("gatk", 0, 2.0, 1, 7.0)
        refitter.observe("gatk", 0, 4.0, 1, 13.0)
        assert refitter.refits == 0  # refit ran but installed nothing
        assert plane.epoch == 0

    def test_retention_window_bounds_samples(self):
        plane = KnowledgePlane()
        refitter = OnlineRefitter(
            plane, refit_every=1000, min_samples=2, max_observations=4
        )
        for i in range(10):
            refitter.observe("gatk", 0, float(i + 1), 1, 2.0 * (i + 1))
        refitter.flush()
        assert plane.get("gatk", 0).samples == 4


class TestPerTierRefit:
    # Truth: base = 2 d + 3, run at 4 threads under c = 0.8, spread over
    # two tiers.
    def _events(self, tiers):
        sizes = (1.0, 2.0, 4.0, 8.0, 3.0, 6.0)
        return [
            completed(
                0, size, amdahl_time(2.0 * size + 3.0 + 0.1 * i, 4, 0.8),
                threads=4, tier=tiers[i % len(tiers)],
            )
            for i, size in enumerate(sizes * 3)
        ]

    def _run(self, per_tier, tiers):
        plane = KnowledgePlane()
        plane.install([fact(a=1.0, b=1.0, c=0.8)])
        bus = EventBus()
        refitter = OnlineRefitter(
            plane, refit_every=4, min_samples=4, per_tier=per_tier
        ).attach(bus)
        for event in self._events(tiers):
            bus.publish(event)
        return plane, refitter

    def test_per_tier_counts_each_completion_once(self):
        flat, flat_refitter = self._run(False, ("private", "spot"))
        tiered, tiered_refitter = self._run(True, ("private", "spot"))
        assert tiered_refitter.refits == flat_refitter.refits
        assert tiered_refitter.observed == flat_refitter.observed == 18
        assert tiered.epoch == flat.epoch
        assert tiered.get("gatk", 0) == flat.get("gatk", 0)
        assert {f.app for f in tiered.facts()} == {
            "gatk", "gatk@private", "gatk@spot"
        }

    def test_tier_scope_borrows_the_unscoped_prior(self):
        plane, _ = self._run(True, ("private",))
        base = plane.get("gatk", 0)
        scoped = plane.get("gatk@private", 0)
        assert scoped.provenance == "refit"
        assert (scoped.a, scoped.b, scoped.c, scoped.samples) == (
            base.a, base.b, base.c, base.samples
        )
        assert scoped.ram_gb == base.ram_gb
        assert scoped.a == pytest.approx(2.0, rel=0.05)


class TestProviders:
    def test_registry_lists_both(self):
        names = ESTIMATE_PROVIDERS.names()
        assert "static" in names
        assert "adaptive" in names

    def test_static_matches_application_model_exactly(self, gatk_model):
        provider = make_estimate_provider(
            "static", workflow=chain_of(gatk_model)
        )
        assert isinstance(provider, StaticEstimateProvider)
        assert provider.epoch == 0
        assert provider.n_stages == gatk_model.n_stages
        for stage in range(gatk_model.n_stages):
            # == not approx: static is the pre-plane float path, pinned
            # by the golden sweep fixtures.
            assert provider.eet(stage, 5.0, 8) == gatk_model.stage(
                stage
            ).threaded_time(8, 5.0)

    def test_adaptive_cold_plane_matches_static(self, gatk_model):
        plane = KnowledgePlane()
        chain = chain_of(gatk_model)
        adaptive = make_estimate_provider("adaptive", workflow=chain, plane=plane)
        static = make_estimate_provider("static", workflow=chain)
        assert len(plane) == gatk_model.n_stages  # auto-seeded
        for stage in range(gatk_model.n_stages):
            assert adaptive.eet(stage, 7.5, 4) == static.eet(stage, 7.5, 4)

    def test_adaptive_tracks_installed_facts(self, gatk_model):
        plane = KnowledgePlane()
        provider = AdaptiveEstimateProvider(chain_of(gatk_model), plane)
        before = provider.eet(0, 5.0, 1)
        epoch0 = provider.epoch
        plane.install([fact(app=gatk_model.name, stage=0, a=100.0, b=0.0,
                            provenance="refit")])
        assert provider.epoch > epoch0
        assert provider.eet(0, 5.0, 1) == pytest.approx(500.0)
        assert provider.eet(0, 5.0, 1) != before

    def test_adaptive_keeps_untouched_model_objects(self, gatk_model):
        plane = KnowledgePlane()
        provider = AdaptiveEstimateProvider(chain_of(gatk_model), plane)
        before = [provider.stage_model(i) for i in range(gatk_model.n_stages)]
        plane.install([fact(app=gatk_model.name, stage=2, a=9.0, b=1.0,
                            provenance="refit")])
        after = [provider.stage_model(i) for i in range(gatk_model.n_stages)]
        assert after[2] is not before[2]
        assert after[2].a == 9.0
        for i in range(gatk_model.n_stages):
            if i != 2:
                assert after[i] is before[i]

    def test_workflow_adaptive_keeps_untouched_model_objects(self):
        from repro.workflows.compiled import compile_spec
        from repro.workflows.library import make_workflow

        wf = compile_spec(make_workflow("star_fanout"))
        plane = KnowledgePlane()
        provider = AdaptiveEstimateProvider(wf, plane)
        before = [provider.stage_model(i) for i in range(wf.n_nodes)]
        touched = {0, wf.n_nodes - 1}
        plane.install(
            fact(app=wf.node(k).scope, stage=wf.node(k).app_stage,
                 a=4.0, b=2.0, provenance="refit")
            for k in touched
        )
        after = [provider.stage_model(i) for i in range(wf.n_nodes)]
        for i in range(wf.n_nodes):
            if i in touched:
                assert after[i] is not before[i]
                assert (after[i].a, after[i].b) == (4.0, 2.0)
            else:
                assert after[i] is before[i]

    def test_adaptive_requires_a_plane(self, gatk_model):
        with pytest.raises(KnowledgeBaseError):
            make_estimate_provider(
                "adaptive", workflow=chain_of(gatk_model), plane=None
            )

    def test_fact_provider_uses_unclamped_prediction(self):
        plane = KnowledgePlane()
        plane.install([fact(stage=0, a=2.0, b=1.0, c=0.8),
                       fact(stage=1, a=1.0, b=5.0, c=None)])
        provider = FactProvider(plane, "gatk")
        assert provider.n_stages == 2
        assert provider.stages() == [0, 1]
        assert provider.eet(0, 3.0, 4) == plane.get("gatk", 0).predict(3.0, 4)
        with pytest.raises(KnowledgeBaseError):
            provider.eet(7, 1.0, 1)
        with pytest.raises(KnowledgeBaseError):
            provider.stage_model(7)


class TestDriftedModel:
    def test_identity_factor_returns_same_object(self, gatk_model):
        assert drifted_model(gatk_model, 1.0) is gatk_model

    def test_scales_linear_coefficients_only(self, gatk_model):
        drifted = drifted_model(gatk_model, 0.5)
        assert drifted.name == gatk_model.name
        assert drifted.n_stages == gatk_model.n_stages
        for before, after in zip(gatk_model.stages, drifted.stages):
            assert after.a == pytest.approx(before.a * 0.5)
            assert after.b == pytest.approx(before.b * 0.5)
            assert after.c == before.c
            assert after.ram_gb == before.ram_gb

    def test_nonpositive_factor_rejected(self, gatk_model):
        with pytest.raises(ValueError):
            drifted_model(gatk_model, 0.0)
        with pytest.raises(ValueError):
            drifted_model(gatk_model, -2.0)


class TestWorkflowProviders:
    def _fanout(self):
        from repro.workflows.compiled import compile_spec
        from repro.workflows.library import star_fanout_workflow

        return compile_spec(star_fanout_workflow())

    def test_factory_maps_kinds(self):
        wf = self._fanout()
        assert isinstance(
            make_estimate_provider("static", workflow=wf),
            StaticEstimateProvider,
        )
        assert isinstance(
            make_estimate_provider(
                "adaptive", workflow=wf, plane=KnowledgePlane()
            ),
            AdaptiveEstimateProvider,
        )
        with pytest.raises(ConfigurationError, match="static"):
            make_estimate_provider("fact", workflow=wf, plane=KnowledgePlane())

    def test_adaptive_requires_plane(self):
        with pytest.raises(KnowledgeBaseError):
            AdaptiveEstimateProvider(self._fanout(), None)

    def test_static_serves_node_models_exactly(self):
        wf = self._fanout()
        provider = StaticEstimateProvider(wf)
        assert provider.n_stages == wf.n_nodes
        for i in range(wf.n_nodes):
            assert provider.stage_model(i) is wf.node(i).model
            assert provider.eet(i, 4.0, 2) == wf.node(i).model.threaded_time(
                2, 4.0
            )

    def test_adaptive_seeds_cold_plane_per_scope(self):
        wf = self._fanout()
        plane = KnowledgePlane()
        AdaptiveEstimateProvider(wf, plane)
        scopes = {f.app for f in plane.facts()}
        assert scopes == {
            "star_fanout/align", "star_fanout/germline",
            "star_fanout/somatic", "star_fanout/integrate",
        }

    def test_two_branches_refit_independently(self):
        """The acceptance scenario: one run's observations drive the two
        fan-out branches to DIFFERENT fitted coefficients, because facts
        are keyed by (workflow/step, app_stage) scope -- not by tool."""
        wf = self._fanout()
        plane = KnowledgePlane()
        provider = AdaptiveEstimateProvider(wf, plane)
        bus = EventBus()
        OnlineRefitter(plane, refit_every=4, min_samples=4).attach(bus)

        def publish(scope, stage, a, b):
            for size in (2.0, 4.0, 6.0, 8.0):
                bus.publish(StageCompleted(
                    time=0.0, job="j", app=scope, stage=stage,
                    input_gb=size, threads=1, duration=a * size + b,
                ))

        publish("star_fanout/germline", 0, a=3.0, b=1.0)
        publish("star_fanout/somatic", 0, a=5.0, b=2.0)

        germline = plane.get("star_fanout/germline", 0)
        somatic = plane.get("star_fanout/somatic", 0)
        assert germline.provenance == somatic.provenance == "refit"
        assert germline.a == pytest.approx(3.0)
        assert somatic.a == pytest.approx(5.0)

        germline_head = min(
            n.index for n in wf if n.scope == "star_fanout/germline"
        )
        somatic_head = min(
            n.index for n in wf if n.scope == "star_fanout/somatic"
        )
        assert provider.eet(germline_head, 10.0, 1) == pytest.approx(31.0)
        assert provider.eet(somatic_head, 10.0, 1) == pytest.approx(52.0)
