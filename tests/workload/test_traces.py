"""Tests for arrival-trace record/replay."""

import numpy as np
import pytest

from repro.core.config import WorkloadConfig
from repro.core.errors import WorkloadError
from repro.desim.engine import Environment
from repro.workload.arrivals import ArrivalBatch, BatchArrivalProcess
from repro.workload.traces import ArrivalTrace, record_trace


def make_trace():
    proc = BatchArrivalProcess(WorkloadConfig(), np.random.default_rng(9))
    return record_trace(proc, duration=100.0)


class TestTrace:
    def test_record_freezes_batches(self):
        trace = make_trace()
        assert len(trace) > 0
        assert trace.n_jobs >= len(trace)
        assert trace.duration < 100.0

    def test_unordered_trace_rejected(self):
        with pytest.raises(WorkloadError):
            ArrivalTrace(
                (
                    ArrivalBatch(time=5.0, sizes=(1.0,)),
                    ArrivalBatch(time=3.0, sizes=(1.0,)),
                )
            )

    def test_empty_trace(self):
        trace = ArrivalTrace(())
        assert len(trace) == 0
        assert trace.duration == 0.0


class TestJsonlRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        from repro.workload.traces import load_trace_jsonl, save_trace_jsonl

        trace = make_trace()
        path = tmp_path / "trace.jsonl"
        rows = save_trace_jsonl(path, trace)
        assert rows == len(trace)
        assert load_trace_jsonl(path) == trace

    def test_blank_lines_tolerated(self, tmp_path):
        from repro.workload.traces import load_trace_jsonl

        path = tmp_path / "trace.jsonl"
        path.write_text('{"time": 1.0, "sizes": [2.0]}\n\n'
                        '{"time": 3.0, "sizes": [1.0, 4.0]}\n')
        assert len(load_trace_jsonl(path)) == 2

    def test_missing_file_named(self, tmp_path):
        from repro.workload.traces import load_trace_jsonl

        with pytest.raises(WorkloadError, match="not found"):
            load_trace_jsonl(tmp_path / "ghost.jsonl")

    @pytest.mark.parametrize("line,complaint", [
        ("not json", "not valid JSON"),
        ('[1, 2]', "'time' and 'sizes'"),
        ('{"time": 1.0}', "'time' and 'sizes'"),
        ('{"time": "soon", "sizes": [1.0]}', "non-numeric"),
        ('{"time": 1.0, "sizes": [1.0, "big"]}', "non-numeric"),
        ('{"time": 1.0, "sizes": []}', "positive size"),
        ('{"time": 1.0, "sizes": [0.0]}', "positive size"),
        ('{"time": NaN, "sizes": [1.0]}', "time must be finite"),
        ('{"time": Infinity, "sizes": [1.0]}', "time must be finite"),
        ('{"time": -1.0, "sizes": [1.0]}', "time must be finite"),
        ('{"time": 1.0, "sizes": [NaN]}', "finite positive size"),
        ('{"time": 1.0, "sizes": [Infinity]}', "finite positive size"),
    ])
    def test_malformed_line_names_position(self, tmp_path, line, complaint):
        from repro.workload.traces import load_trace_jsonl

        path = tmp_path / "trace.jsonl"
        path.write_text('{"time": 0.5, "sizes": [1.0]}\n' + line + "\n")
        with pytest.raises(WorkloadError, match=complaint) as err:
            load_trace_jsonl(path)
        assert ":2:" in str(err.value)


class TestTraceArrivalProcess:
    def make_proc(self, tmp_path):
        from repro.workload.traces import TraceArrivalProcess, save_trace_jsonl

        trace = make_trace()
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(path, trace)
        return trace, TraceArrivalProcess.from_jsonl(path)

    def test_generate_filters_by_horizon(self, tmp_path):
        trace, proc = self.make_proc(tmp_path)
        horizon = trace.batches[len(trace) // 2].time
        replayed = list(proc.generate(horizon))
        assert replayed == [b for b in trace if b.time < horizon]

    def test_generate_rejects_nonpositive_duration(self, tmp_path):
        _, proc = self.make_proc(tmp_path)
        with pytest.raises(WorkloadError):
            list(proc.generate(0.0))

    def test_run_replays_exact_timestamps(self, tmp_path):
        trace, proc = self.make_proc(tmp_path)
        env = Environment()
        seen = []
        env.process(proc.run(env, lambda b: seen.append((env.now, b))))
        env.run(until=200.0)
        assert [b for _, b in seen] == list(trace.batches)
        for now, batch in seen:
            assert now == pytest.approx(batch.time)

    def test_replay_is_deterministic_across_loads(self, tmp_path):
        _, first = self.make_proc(tmp_path)
        from repro.workload.traces import TraceArrivalProcess

        second = TraceArrivalProcess.from_jsonl(tmp_path / "trace.jsonl")
        assert list(first.generate(100.0)) == list(second.generate(100.0))

    def test_expected_load_rate_matches_trace(self, tmp_path):
        trace, proc = self.make_proc(tmp_path)
        total = sum(b.total_size for b in trace)
        assert proc.expected_load_rate() == pytest.approx(
            total / trace.duration
        )
