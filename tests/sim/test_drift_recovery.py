"""Model drift and online recovery: the knowledge plane's showcase.

The ``drift`` preset plans with 2x-pessimistic coefficients (ground truth
runs at half the profiled time) under the throughput reward.  The static
provider keeps serving the stale profile; the adaptive provider refits
from completed-stage observations and claws the lost profit back.
"""

import pytest

from repro.core.config import PlatformConfig, TierConfig
from repro.core.presets import make_preset
from repro.desim.engine import Environment
from repro.desim.rng import RandomStreams
from repro.sim.builder import PlatformBuilder
from repro.sim.session import SimulationSession


def drift_config(provider="static", duration=600.0):
    return make_preset("drift").with_overrides(
        knowledge={"provider": provider},
        simulation={"duration": duration, "repetitions": 1},
    )


def profit(result):
    return result.total_reward - result.total_cost


class TestKnowledgeWiring:
    def test_static_runs_have_no_refitter(self):
        platform = PlatformBuilder(PlatformConfig.paper_defaults()).build(
            Environment(), RandomStreams(0)
        )
        assert platform.plane is not None
        assert platform.estimates is not None
        assert platform.refitter is None  # static never re-fits
        assert platform.scheduler.estimator.estimates is platform.estimates

    def test_adaptive_runs_attach_a_refitter(self):
        config = PlatformConfig.paper_defaults().with_overrides(
            knowledge={"provider": "adaptive"},
        )
        platform = PlatformBuilder(config).build(Environment(), RandomStreams(0))
        assert platform.refitter is not None
        assert platform.refitter.plane is platform.plane
        assert platform.scheduler.estimator.estimates is platform.estimates

    def test_model_drift_builds_a_drifted_actual_app(self):
        config = PlatformConfig.paper_defaults().with_overrides(
            knowledge={"model_drift": 0.5},
        )
        builder = PlatformBuilder(config)
        assert builder.actual_app is not None
        for believed, actual in zip(builder.app.stages, builder.actual_app.stages):
            assert actual.a == pytest.approx(believed.a * 0.5)
            assert actual.b == pytest.approx(believed.b * 0.5)
            assert actual.c == believed.c

    def test_explicit_actual_app_wins_over_drift_config(self, gatk_model):
        config = PlatformConfig.paper_defaults().with_overrides(
            knowledge={"model_drift": 0.5},
        )
        builder = PlatformBuilder(config, actual_app=gatk_model)
        assert builder.actual_app is gatk_model

    def test_session_exposes_plane_and_refitter(self):
        session = SimulationSession(drift_config("adaptive", duration=200.0))
        session.run(seed=0)
        assert session.plane is not None
        assert session.refitter is not None
        assert session.refitter.refits > 0
        assert any(f.provenance == "refit" for f in session.plane.facts())


def tiered_adaptive_config(per_tier):
    # Small reserved and spot tiers so completions spread over three tiers.
    return make_preset("chaos").with_overrides(
        cloud={
            "tiers": (
                TierConfig(name="private", backend="reserved",
                           capacity_cores=192, core_cost_per_tu=5.0),
                TierConfig(name="spot", backend="spot", capacity_cores=96,
                           core_cost_per_tu=10.0, eviction_mtbf_tu=60.0,
                           reference_cost_per_tu=50.0),
                TierConfig(name="public", backend="on_demand",
                           capacity_cores=1_000_000, core_cost_per_tu=50.0),
            ),
        },
        knowledge={"provider": "adaptive", "per_tier": per_tier},
        resilience={"max_attempts": 5},
        workload={"mean_interarrival": 3.0},
        simulation={"duration": 150.0, "repetitions": 1},
    )


class TestPerTierRefit:
    def test_per_tier_leaves_base_facts_and_cadence_alone(self):
        runs = {}
        for per_tier in (False, True):
            session = SimulationSession(tiered_adaptive_config(per_tier))
            result = session.run(seed=1)
            runs[per_tier] = (session, result)
        (flat, flat_result), (tiered, tiered_result) = runs[False], runs[True]
        assert tiered.refitter.refits == flat.refitter.refits
        assert tiered_result == flat_result
        base = [f for f in tiered.plane.facts() if "@" not in f.app]
        assert base == flat.plane.facts()
        scoped = {f.app for f in tiered.plane.facts() if "@" in f.app}
        assert len(scoped) >= 2


class TestDriftRecovery:
    def test_adaptive_beats_static_under_drift(self):
        static = SimulationSession(drift_config("static")).run(seed=0)
        adaptive = SimulationSession(drift_config("adaptive")).run(seed=0)
        # The acceptance experiment: same workload, same drift, and the
        # refitting provider completes at least as many runs for strictly
        # more profit (EXPERIMENTS.md, model-drift row).
        assert adaptive.completed_runs >= static.completed_runs
        assert profit(adaptive) > profit(static)

    def test_static_drift_run_is_deterministic(self):
        a = SimulationSession(drift_config("static")).run(seed=3)
        b = SimulationSession(drift_config("static")).run(seed=3)
        assert a == b

    def test_adaptive_drift_run_is_deterministic(self):
        a = SimulationSession(drift_config("adaptive")).run(seed=3)
        b = SimulationSession(drift_config("adaptive")).run(seed=3)
        assert a == b

    def test_refits_converge_toward_drifted_truth(self):
        session = SimulationSession(drift_config("adaptive"))
        session.run(seed=0)
        believed = session.app
        actual = session.actual_app
        for fact in session.plane.facts(believed.name):
            if fact.provenance != "refit" or fact.samples < 8:
                continue
            stage = actual.stage(fact.stage)
            # Refits should land near the drifted ground truth, far from
            # the 2x-pessimistic profile the run started with.
            assert fact.predict(5.0) == pytest.approx(
                stage.execution_time(5.0), rel=0.15
            )

    def test_no_drift_static_equals_adaptive_estimates_off(self):
        # Without drift and without refitting pressure the adaptive
        # provider serves model-seeded facts: same decisions, same result.
        base = PlatformConfig.paper_defaults().with_overrides(
            simulation={"duration": 150.0, "repetitions": 1},
        )
        static = SimulationSession(base).run(seed=2)
        adaptive = SimulationSession(
            base.with_overrides(knowledge={"provider": "adaptive"})
        ).run(seed=2)
        # Both complete work; adaptive may differ slightly once refits
        # land, but the run must stay healthy.
        assert static.completed_runs > 0
        assert adaptive.completed_runs > 0
