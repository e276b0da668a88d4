"""Tests for the span tracer and its Chrome trace-event export."""

import json

import pytest

from repro.telemetry.tracing import (
    LANE_CONTROL,
    TU_TO_US,
    SpanTracer,
    lane_for_stage,
    lane_for_worker,
)


class FakeClocks:
    """Deterministic sim and wall clocks the tests advance by hand."""

    def __init__(self):
        self.sim = 0.0
        self.wall = 0.0

    def tracer(self, **kwargs) -> SpanTracer:
        return SpanTracer(
            clock=lambda: self.sim, wall=lambda: self.wall, **kwargs
        )


class TestLanes:
    def test_lane_ranges_do_not_collide(self):
        stages = {lane_for_stage(s) for s in range(10)}
        workers = {lane_for_worker(u) for u in range(500)}
        assert LANE_CONTROL not in stages | workers
        assert not stages & workers

    def test_lane_naming_is_idempotent(self):
        tracer = FakeClocks().tracer()
        tracer.lane(5, "first")
        tracer.lane(5, "second")
        meta = [
            ev
            for ev in tracer.to_chrome_trace()["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name" and ev["tid"] == 5
        ]
        assert len(meta) == 1
        assert meta[0]["args"]["name"] == "first"


class TestSpans:
    def test_span_records_sim_interval_in_microseconds(self):
        clocks = FakeClocks()
        tracer = clocks.tracer()
        with tracer.span("work", "scheduler"):
            clocks.sim += 2.5
        (event,) = [
            ev for ev in tracer.to_chrome_trace()["traceEvents"] if ev["ph"] == "X"
        ]
        assert event["name"] == "work"
        assert event["cat"] == "scheduler"
        assert event["ts"] == 0.0
        assert event["dur"] == pytest.approx(2.5 * TU_TO_US)

    def test_sync_span_wall_time_attributed_to_category(self):
        clocks = FakeClocks()
        tracer = clocks.tracer()
        with tracer.span("fast", "broker"):
            clocks.wall += 0.25
        with tracer.span("slow", "task"):
            clocks.wall += 10.0
        walls = {
            ev["cat"]: ev["args"]["wall_us"]
            for ev in tracer.to_chrome_trace()["traceEvents"]
            if ev["ph"] == "X"
        }
        assert walls == {"broker": pytest.approx(0.25e6), "task": pytest.approx(10e6)}
        assert tracer.count_by_category == {"broker": 1, "task": 1}

    def test_error_flag_set_when_body_raises(self):
        tracer = FakeClocks().tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom", "task"):
                raise RuntimeError("interrupted")
        (event,) = [
            ev for ev in tracer.to_chrome_trace()["traceEvents"] if ev["ph"] == "X"
        ]
        assert event["args"]["error"] is True

    def test_instants_and_counters_recorded(self):
        tracer = FakeClocks().tracer()
        tracer.instant("decision.wait", "scheduler", args={"job": 1})
        tracer.counter("queue.depth", "scheduler", {"depth": 3.0})
        phases = sorted(
            ev["ph"]
            for ev in tracer.to_chrome_trace()["traceEvents"]
            if ev["ph"] != "M"
        )
        assert phases == ["C", "i"]
        # Counter samples are not category-counted; the instant is.
        assert tracer.count_by_category == {"scheduler": 1}

    def test_categories_reflect_recorded_events(self):
        clocks = FakeClocks()
        tracer = clocks.tracer()
        with tracer.span("a", "engine"):
            pass
        tracer.instant("b", "cloud")
        assert tracer.categories() == {"engine", "cloud"}


class TestExport:
    def test_event_cap_counts_drops_without_storing(self):
        tracer = FakeClocks().tracer(max_events=2)
        for i in range(5):
            tracer.instant(f"e{i}", "scheduler")
        assert tracer.n_events == 2
        assert tracer.dropped == 3
        trace = tracer.to_chrome_trace()
        assert trace["otherData"]["dropped_events"] == 3

    def test_write_produces_loadable_chrome_trace(self, tmp_path):
        clocks = FakeClocks()
        tracer = clocks.tracer()
        tracer.lane(lane_for_worker(1), "worker 1")
        with tracer.span("exec", "task", lane=lane_for_worker(1)):
            clocks.sim += 1.0
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        data = json.loads(path.read_text())
        assert "traceEvents" in data
        names = {ev["name"] for ev in data["traceEvents"]}
        assert {"process_name", "thread_name", "exec"} <= names
        assert data["otherData"]["tu_to_us"] == TU_TO_US

    def test_metadata_lanes_sorted_by_tid(self):
        tracer = FakeClocks().tracer()
        tracer.lane(1000, "worker")
        tracer.lane(0, "control")
        tids = [
            ev["tid"]
            for ev in tracer.to_chrome_trace()["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        ]
        assert tids == sorted(tids)
