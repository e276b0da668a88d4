"""What a session keeps per simulated task: the memory regression gate.

A finished session is torn down and freed by reference counting (see
``tests/sim/test_session_lifecycle.py``), so what a session allocates
while it runs sets a sweep process's peak.  These tests pin two savings --
monitors keep no change log, chain jobs keep no per-job sets -- and a
ceiling on one whole session's traced peak.  (That a finished process
with no waiter leaves no calendar entry is pinned in
``tests/desim/test_process.py``.)
"""

import gc
import math
import tracemalloc

import pytest

from repro.apps.gatk import build_gatk_model
from repro.core.presets import make_preset
from repro.desim.monitor import TimeWeightedMonitor
from repro.scheduler.tasks import Job, StageRecord
from repro.sim.session import SimulationSession
from repro.workflows.compiled import chain_of, compile_spec
from repro.workflows.library import star_fanout_workflow

#: tracemalloc peak of one 300 TU ``busy`` session at seed 1 was 0.907 MB
#: (2.37 MB before monitors dropped their change logs and chain jobs
#: their sets); the ceiling sits about 25 % above it.
BUSY_300_PEAK_CEILING_MB = 1.15


def _record(job, stage, t):
    job.record_stage(
        StageRecord(
            stage=stage, queued_at=t, started_at=t, finished_at=t + 1.0,
            threads=1, tier="private",
        )
    )


def _sets_held_by(job):
    return [
        o for o in gc.get_referents(vars(job))
        if isinstance(o, (set, frozenset))
    ]


class TestTimeWeightedMonitor:
    def test_bytes_do_not_grow_with_updates(self):
        monitor = TimeWeightedMonitor("cores")
        levels = [float((i * 7919) % 613) for i in range(100_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, level in enumerate(levels):
                monitor.set_level(float(i), level)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 100,000 logged (time, level) tuples would be several MB.
        assert grown < 4096

    def test_statistics_match_a_reference(self):
        monitor = TimeWeightedMonitor("q", initial=2.0, start_time=1.0)
        points = [(1.0 + 0.37 * i, float((i * 31) % 17)) for i in range(1, 5000)]
        for t, level in points:
            monitor.set_level(t, level)
        until = points[-1][0] + 2.5
        segments = [(1.0, 2.0)] + points + [(until, None)]
        area = math.fsum(
            level * (t1 - t0)
            for (t0, level), (t1, _) in zip(segments, segments[1:])
        )
        assert monitor.integral(until) == pytest.approx(area, rel=1e-12)
        assert monitor.time_average(until) == pytest.approx(
            area / (until - 1.0), rel=1e-12
        )
        assert monitor.peak == max([2.0] + [level for _, level in points])


class TestChainJobBookkeeping:
    def test_seven_stage_chain_job_holds_no_sets(self):
        app = build_gatk_model()
        assert app.n_stages == 7
        for workflow in (None, chain_of(app)):
            job = Job(app=app, size=5.0, submit_time=0.0, workflow=workflow)
            assert _sets_held_by(job) == []
            stage = job.start_steps()[0]
            while True:
                _record(job, stage, float(stage))
                # Reading the lazy workflow mid-run must not switch the
                # job onto DAG bookkeeping.
                assert job.workflow.is_chain
                assert _sets_held_by(job) == []
                ready = job.ready_after(stage)
                if not ready:
                    break
                (stage,) = ready
            assert job.current_stage == 7
            assert job.completed_steps == frozenset(range(7))
            assert job.step_done(6) and not job.step_done(7)

    def test_star_fanout_job_keeps_its_fan_in_barrier(self):
        wf = compile_spec(star_fanout_workflow())
        app = star_fanout_workflow().registry.get("star")
        job = Job(app=app, size=5.0, submit_time=0.0, workflow=wf)
        fan_in = next(n for n in wf if len(n.parents) > 1)
        germline_tail, somatic_tail = fan_in.parents
        frontier = list(job.start_steps())
        released = []
        t = 0.0
        while frontier:
            # Finish the somatic branch first, then the germline one.
            stage = min(frontier, key=lambda s: (s <= germline_tail, s))
            frontier.remove(stage)
            _record(job, stage, t)
            t += 1.0
            ready = job.ready_after(stage)
            if fan_in.index in ready:
                # Released once, and only by the last parent to finish.
                assert job.step_done(somatic_tail)
                assert stage == germline_tail
            released.extend(ready)
            frontier.extend(ready)
        assert released.count(fan_in.index) == 1
        assert job.completed_steps == frozenset(range(wf.n_nodes))
        assert len(_sets_held_by(job)) == 2


def test_busy_session_peak_stays_under_its_ceiling():
    cfg = make_preset("busy").with_overrides(simulation={"duration": 300.0})
    # Warm up once so import-time and first-use caches are not counted.
    SimulationSession(cfg).run(seed=1)
    tracemalloc.start()
    try:
        result = SimulationSession(cfg).run(seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.submitted_runs > 0
    assert peak / 1e6 < BUSY_300_PEAK_CEILING_MB
