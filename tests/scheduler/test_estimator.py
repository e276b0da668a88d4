"""Tests for ETT/EET/EQT estimation (Eq. 2) and the delay cost (Eq. 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SchedulingError
from repro.scheduler.estimator import PipelineEstimator, delay_cost
from repro.scheduler.queues import StageQueue
from repro.scheduler.rewards import ThroughputReward, TimeReward
from repro.scheduler.tasks import Job, StageTask
from repro.apps.base import ExecutionPlan
from repro.workflows.compiled import chain_of


@pytest.fixture
def estimator(gatk_model):
    return PipelineEstimator(gatk_model, eqt_alpha=0.5)


def make_job(gatk_model, size=5.0, submit=0.0):
    return Job(app=gatk_model, size=size, submit_time=submit)


class TestEQT:
    def test_first_observation_sets_value(self, estimator):
        estimator.observe_queue_wait(0, 4.0)
        assert estimator.eqt(0) == 4.0

    def test_ewma_smoothing(self, estimator):
        estimator.observe_queue_wait(0, 4.0)
        estimator.observe_queue_wait(0, 8.0)
        assert estimator.eqt(0) == pytest.approx(0.5 * 8.0 + 0.5 * 4.0)

    def test_stages_independent(self, estimator):
        estimator.observe_queue_wait(0, 10.0)
        assert estimator.eqt(1) == 0.0

    def test_negative_wait_rejected(self, estimator):
        with pytest.raises(Exception):
            estimator.observe_queue_wait(0, -1.0)


class TestEET:
    def test_matches_stage_model(self, estimator, gatk_model):
        assert estimator.eet(4, 5.0, threads=8) == pytest.approx(
            gatk_model.stage(4).threaded_time(8, 5.0)
        )


class TestEETMemo:
    def test_cached_value_is_bitwise_exact(self, estimator, gatk_model):
        direct = gatk_model.stage(3).threaded_time(4, 7.25)
        first = estimator.eet(3, 7.25, threads=4)
        second = estimator.eet(3, 7.25, threads=4)
        # == not approx: the memo must return the exact same float, or
        # serial and parallel sweeps diverge at the last bit.
        assert first == direct
        assert second == direct

    def test_counters_track_hits_and_misses(self, estimator):
        estimator.eet(0, 5.0, threads=1)
        estimator.eet(0, 5.0, threads=1)
        estimator.eet(0, 6.0, threads=1)
        assert estimator.cache_stats() == {"hits": 1, "misses": 2}

    def test_distinct_keys_do_not_collide(self, estimator, gatk_model):
        by_stage = estimator.eet(1, 5.0, threads=2)
        by_size = estimator.eet(1, 5.5, threads=2)
        by_threads = estimator.eet(1, 5.0, threads=4)
        assert by_stage == pytest.approx(gatk_model.stage(1).threaded_time(2, 5.0))
        assert by_size == pytest.approx(gatk_model.stage(1).threaded_time(2, 5.5))
        assert by_threads == pytest.approx(gatk_model.stage(1).threaded_time(4, 5.0))

    def test_clears_when_full(self, estimator, monkeypatch):
        import repro.scheduler.estimator as mod

        monkeypatch.setattr(mod, "EET_CACHE_SIZE", 2)
        estimator.eet(0, 1.0)
        estimator.eet(0, 2.0)
        estimator.eet(0, 3.0)  # hits the cap: memo dropped, then refilled
        assert len(estimator._eet_cache) == 1
        assert estimator.eet(0, 3.0) == estimator.eet(0, 3.0)


class TestEETMemoEpochs:
    def test_plane_epoch_bump_invalidates_memo(self, gatk_model):
        from repro.knowledge.plane import (
            AdaptiveEstimateProvider,
            KnowledgePlane,
            StageFact,
        )

        plane = KnowledgePlane()
        provider = AdaptiveEstimateProvider(chain_of(gatk_model), plane)
        estimator = PipelineEstimator(gatk_model, estimates=provider)
        before = estimator.eet(0, 5.0, threads=1)
        plane.install([StageFact(app=gatk_model.name, stage=0,
                                 a=100.0, b=0.0, c=None,
                                 provenance="refit")])
        # Same key, new facts: the memo must not serve the stale float.
        after = estimator.eet(0, 5.0, threads=1)
        assert after == pytest.approx(500.0)
        assert after != before

    def test_bump_keeps_untouched_stages_memoised(self, gatk_model):
        from repro.knowledge.plane import (
            AdaptiveEstimateProvider,
            KnowledgePlane,
            StageFact,
        )

        plane = KnowledgePlane()
        provider = AdaptiveEstimateProvider(chain_of(gatk_model), plane)
        estimator = PipelineEstimator(gatk_model, estimates=provider)
        untouched = estimator.eet(1, 5.0, threads=2)
        estimator.eet(3, 5.0, threads=2)
        plane.install([StageFact(app=gatk_model.name, stage=3,
                                 a=100.0, b=0.0, c=None,
                                 provenance="refit")])
        hits, misses = estimator.cache_hits, estimator.cache_misses
        # Stage 1's fact did not move: its entry is still served.
        assert estimator.eet(1, 5.0, threads=2) == untouched
        assert (estimator.cache_hits, estimator.cache_misses) == (
            hits + 1, misses
        )
        # Stage 3 was refit: its entry is gone and the new float computed.
        assert estimator.eet(3, 5.0, threads=2) == pytest.approx(500.0)
        assert estimator.cache_misses == misses + 1
        assert set(estimator._eet_cache) == {(1, 5.0, 2), (3, 5.0, 2)}

    def test_bump_keeps_untouched_dag_nodes_memoised(self):
        from repro.knowledge.plane import (
            AdaptiveEstimateProvider,
            KnowledgePlane,
            StageFact,
        )
        from repro.workflows.compiled import compile_spec
        from repro.workflows.library import make_workflow

        wf = compile_spec(make_workflow("star_fanout"))
        plane = KnowledgePlane()
        provider = AdaptiveEstimateProvider(wf, plane)
        app = wf.as_app()
        estimator = PipelineEstimator(app, estimates=provider, workflow=wf)
        before = {i: estimator.eet(i, 7.5, threads=4) for i in range(wf.n_nodes)}
        k = wf.n_nodes - 1
        node = wf.node(k)
        plane.install([StageFact(app=node.scope, stage=node.app_stage,
                                 a=3.0, b=1.0, c=None,
                                 provenance="refit")])
        hits = estimator.cache_hits
        for j in range(wf.n_nodes - 1):
            assert estimator.eet(j, 7.5, threads=4) == before[j]
        assert estimator.cache_hits == hits + wf.n_nodes - 1
        misses = estimator.cache_misses
        after = estimator.eet(k, 7.5, threads=4)
        assert estimator.cache_misses == misses + 1
        assert after == provider.eet(k, 7.5, 4) == 3.0 * 7.5 + 1.0
        assert after != before[k]

    def test_fresh_model_provider_drops_whole_memo(self, gatk_model):
        from repro.knowledge.plane import FactProvider, KnowledgePlane

        # FactProvider builds a new model on every stage_model call, so
        # an epoch bump can prove nothing unchanged: everything misses.
        plane = KnowledgePlane()
        plane.seed_from_workflow(chain_of(gatk_model))
        provider = FactProvider(plane, gatk_model.name)
        estimator = PipelineEstimator(gatk_model, estimates=provider)
        estimator.eet(1, 5.0)
        plane.install(plane.facts(gatk_model.name))  # same values, new epoch
        misses = estimator.cache_misses
        estimator.eet(1, 5.0)
        assert estimator.cache_misses == misses + 1

    def test_static_provider_epoch_never_moves(self, estimator):
        estimator.eet(0, 5.0)
        assert estimator.estimates.epoch == 0
        estimator.eet(0, 5.0)
        assert estimator.cache_hits == 1  # memo stayed warm

    def test_per_instance_counters_are_independent(self, gatk_model):
        first = PipelineEstimator(gatk_model)
        second = PipelineEstimator(gatk_model)
        first.eet(0, 5.0)
        first.eet(0, 5.0)
        assert first.cache_stats() == {"hits": 1, "misses": 1}
        # A fresh estimator starts from zero: counters never leak across
        # sessions.
        assert second.cache_stats() == {"hits": 0, "misses": 0}


class TestETT:
    def test_fresh_job_sums_all_stages(self, estimator, gatk_model):
        job = make_job(gatk_model)
        expected = sum(
            gatk_model.stage(i).execution_time(5.0) for i in range(7)
        )
        assert estimator.ett(job, now=0.0) == pytest.approx(expected)

    def test_elapsed_time_included(self, estimator, gatk_model):
        job = make_job(gatk_model, submit=0.0)
        base = estimator.ett(job, now=0.0)
        assert estimator.ett(job, now=10.0) == pytest.approx(base + 10.0)

    def test_completed_stages_drop_out(self, estimator, gatk_model):
        from repro.scheduler.tasks import StageRecord

        job = make_job(gatk_model)
        full = estimator.ett(job, now=0.0)
        job.record_stage(
            StageRecord(0, 0.0, 0.0, 1.0, threads=1, tier="private")
        )
        # Now stage 0's EET no longer appears (but elapsed does).
        reduced = estimator.ett(job, now=0.0)
        assert reduced == pytest.approx(
            full - gatk_model.stage(0).execution_time(5.0)
        )

    def test_queue_estimates_added_per_stage(self, estimator, gatk_model):
        job = make_job(gatk_model)
        base = estimator.ett(job, now=0.0)
        estimator.observe_queue_wait(2, 6.0)
        estimator.observe_queue_wait(5, 4.0)
        assert estimator.ett(job, now=0.0) == pytest.approx(base + 10.0)

    def test_plan_threads_used(self, estimator, gatk_model):
        job = make_job(gatk_model)
        serial = estimator.ett(job, now=0.0)
        job.plan = ExecutionPlan.uniform(7, 16)
        assert estimator.ett(job, now=0.0) < serial

    def test_threads_override(self, estimator, gatk_model):
        job = make_job(gatk_model)
        overridden = estimator.ett(job, 0.0, threads_per_stage=[16] * 7)
        job.plan = ExecutionPlan.uniform(7, 16)
        assert overridden == pytest.approx(estimator.ett(job, 0.0))

    def test_remaining_time_excludes_elapsed(self, estimator, gatk_model):
        job = make_job(gatk_model, submit=0.0)
        r0 = estimator.ett(job, 0.0) - job.elapsed(0.0)
        r10 = estimator.ett(job, 10.0) - job.elapsed(10.0)
        assert r0 == pytest.approx(r10)

    def test_ett_uses_input_gb(self, estimator, gatk_model):
        small = Job(app=gatk_model, size=5.0, submit_time=0.0, input_gb=1.0)
        big = Job(app=gatk_model, size=5.0, submit_time=0.0, input_gb=20.0)
        assert estimator.ett(big, 0.0) > estimator.ett(small, 0.0)


class TestThreadsOverrideLength:
    """A ``threads_per_stage`` override must cover every stage."""

    def test_short_override_on_chain(self, estimator, gatk_model):
        job = make_job(gatk_model)
        with pytest.raises(SchedulingError, match=r"has 2 entries for 7 stages"):
            estimator.ett(job, 1.0, threads_per_stage=[1, 2])

    def test_short_override_on_dag(self):
        from repro.workflows.compiled import compile_spec
        from repro.workflows.library import make_workflow

        wf = compile_spec(make_workflow("star_fanout"))
        app = wf.as_app()
        estimator = PipelineEstimator(app, workflow=wf)
        job = Job(app=app, size=5.0, submit_time=0.0, workflow=wf)
        short = [1] * (wf.n_nodes - 1)
        with pytest.raises(
            SchedulingError,
            match=rf"has {wf.n_nodes - 1} entries for {wf.n_nodes} stages",
        ):
            estimator.ett(job, 1.0, threads_per_stage=short)


def _reference_chain_ett(estimator, job, now, threads_per_stage=None):
    """Eq. 2 as the per-stage memo loop the chain EET row replaced."""
    total = job.elapsed(now)
    for stage in range(job.current_stage, job.n_stages):
        if threads_per_stage is not None:
            threads = threads_per_stage[stage]
        else:
            threads = job.planned_threads(stage)
        total += estimator.eqt(stage) + estimator.eet(stage, job.input_gb, threads)
    return total


_thread_rows = st.sampled_from(
    ((1,) * 7, (2,) * 7, (1, 2, 4, 8, 16, 4, 1), (16, 8, 4, 2, 1, 1, 1), (4, 4, 4))
)
_row_ops = st.lists(
    st.one_of(
        st.tuples(st.just("plan"), st.integers(0, 2), _thread_rows),
        st.tuples(st.just("same_plan"), st.integers(0, 2)),
        st.tuples(st.just("wait"), st.integers(0, 6),
                  st.sampled_from((0.0, 1.5, 4.0))),
        st.tuples(st.just("refit"), st.integers(0, 6),
                  st.sampled_from((0.5, 2.0, 7.0))),
        st.tuples(st.just("foreign_install"),),
        st.tuples(st.just("advance"), st.integers(0, 2)),
        st.tuples(st.just("other"), st.integers(0, 2)),
        st.tuples(st.just("override"), st.integers(0, 2), _thread_rows),
    ),
    min_size=5,
    max_size=40,
)


class TestChainEETRow:
    """Chain ETT read from the per-job EET row equals the per-stage memo
    loop it replaced, bit for bit, under any interleaving of plan
    changes, queue observations, knowledge-plane installs (one stage
    refit, or nothing of this app), stage completions, a second
    estimator pricing the same job and ``threads_per_stage`` overrides;
    with a provider that keeps unchanged models or one that builds a
    fresh model per call, and with a full-size or a two-entry memo."""

    @given(
        ops=_row_ops,
        fresh_models=st.booleans(),
        small_memo=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_operation_sequences(
        self, gatk_model, ops, fresh_models, small_memo
    ):
        import repro.scheduler.estimator as mod
        from repro.knowledge.plane import (
            AdaptiveEstimateProvider,
            FactProvider,
            KnowledgePlane,
            StageFact,
        )
        from repro.scheduler.tasks import StageRecord

        plane = KnowledgePlane()
        if fresh_models:
            plane.seed_from_workflow(chain_of(gatk_model))
            provider = FactProvider(plane, gatk_model.name)
        else:
            provider = AdaptiveEstimateProvider(chain_of(gatk_model), plane)
        est = PipelineEstimator(gatk_model, eqt_alpha=0.5, estimates=provider)
        # The second estimator sees different stage-2 facts from the start.
        other_plane = KnowledgePlane()
        other_plane.seed_from_workflow(chain_of(gatk_model))
        other_plane.install([StageFact(app=gatk_model.name, stage=2, a=3.0,
                                       b=1.0, c=0.5, provenance="refit")])
        other = PipelineEstimator(
            gatk_model,
            estimates=AdaptiveEstimateProvider(chain_of(gatk_model), other_plane),
        )
        jobs = [
            Job(app=gatk_model, size=size, submit_time=0.0)
            for size in (5.0, 7.25, 12.5)
        ]
        with pytest.MonkeyPatch.context() as mp:
            if small_memo:
                mp.setattr(mod, "EET_CACHE_SIZE", 2)
            for step, op in enumerate(ops):
                now = 0.5 * step
                kind = op[0]
                if kind == "plan":
                    jobs[op[1]].plan = ExecutionPlan(op[2])
                elif kind == "same_plan":
                    job = jobs[op[1]]
                    if job.plan is not None:
                        job.plan = ExecutionPlan(job.plan.threads)
                elif kind == "wait":
                    est.observe_queue_wait(op[1], op[2])
                elif kind == "refit":
                    plane.install([StageFact(app=gatk_model.name, stage=op[1],
                                             a=op[2], b=1.0, c=0.5,
                                             provenance="refit")])
                elif kind == "foreign_install":
                    plane.install([StageFact(app="not-" + gatk_model.name,
                                             stage=0, a=1.0, b=0.0, c=None,
                                             provenance="refit")])
                elif kind == "advance":
                    job = jobs[op[1]]
                    if job.current_stage < job.n_stages:
                        job.record_stage(StageRecord(
                            job.current_stage, now, now, now, threads=1,
                            tier="private",
                        ))
                elif kind == "other":
                    job = jobs[op[1]]
                    assert other.ett(job, now) == _reference_chain_ett(
                        other, job, now
                    )
                elif kind == "override":
                    job = jobs[op[1]]
                    threads = op[2] + (1,) * (7 - len(op[2]))
                    assert est.ett(
                        job, now, threads_per_stage=threads
                    ) == _reference_chain_ett(est, job, now, threads)
                for job in jobs:
                    assert est.ett(job, now) == _reference_chain_ett(
                        est, job, now
                    )

    def test_row_is_reused_until_the_plan_changes(self, estimator, gatk_model):
        job = make_job(gatk_model)
        estimator.ett(job, 0.0)
        calls = estimator.cache_hits + estimator.cache_misses
        estimator.ett(job, 1.0)
        assert estimator.cache_hits + estimator.cache_misses == calls
        job.plan = ExecutionPlan.uniform(7, 1)
        estimator.ett(job, 2.0)
        assert estimator.cache_hits + estimator.cache_misses == calls + 7


class TestDelayCost:
    def make_queue(self, gatk_model, sizes):
        q = StageQueue(0)
        for size in sizes:
            job = make_job(gatk_model, size=size)
            q.push(StageTask(job=job, stage=0, enqueued_at=0.0), now=0.0)
        return q

    def test_zero_delay_zero_cost(self, estimator, gatk_model):
        q = self.make_queue(gatk_model, [5.0])
        assert delay_cost(q, estimator, TimeReward(), 0.0, now=0.0) == 0.0

    def test_time_reward_linear_in_delay(self, estimator, gatk_model):
        """For the time scheme Eq. 1 reduces to delay * sum(d_j Rpenalty)."""
        q = self.make_queue(gatk_model, [5.0, 3.0])
        reward = TimeReward(rmax=400.0, rpenalty=15.0)
        dc = delay_cost(q, estimator, reward, 2.0, now=0.0)
        assert dc == pytest.approx(2.0 * (5.0 + 3.0) * 15.0)

    def test_empty_queue_costs_nothing(self, estimator, gatk_model):
        q = StageQueue(0)
        assert delay_cost(q, estimator, TimeReward(), 5.0, now=0.0) == 0.0

    def test_throughput_cost_convex(self, estimator, gatk_model):
        """Delaying an already-slow job costs less under 1/t rewards."""
        q = self.make_queue(gatk_model, [5.0])
        reward = ThroughputReward()
        early = delay_cost(q, estimator, reward, 1.0, now=0.0)
        late = delay_cost(q, estimator, reward, 1.0, now=500.0)
        assert early > late > 0.0

    def test_negative_delay_rejected(self, estimator, gatk_model):
        q = self.make_queue(gatk_model, [5.0])
        with pytest.raises(Exception):
            delay_cost(q, estimator, TimeReward(), -1.0, now=0.0)

    def test_more_queued_jobs_cost_more(self, estimator, gatk_model):
        reward = TimeReward()
        q1 = self.make_queue(gatk_model, [5.0])
        q3 = self.make_queue(gatk_model, [5.0, 5.0, 5.0])
        assert delay_cost(q3, estimator, reward, 1.0, 0.0) == pytest.approx(
            3 * delay_cost(q1, estimator, reward, 1.0, 0.0)
        )
