"""Tests for the batched arrival process."""

import numpy as np
import pytest

from repro.core.config import WorkloadConfig
from repro.desim.engine import Environment
from repro.workload.arrivals import MIN_JOB_SIZE, BatchArrivalProcess


def make_process(seed=1, **overrides):
    config = WorkloadConfig(**overrides)
    rng = np.random.default_rng(seed)
    return BatchArrivalProcess(config, rng)


class TestDraws:
    def test_interval_mean_matches_config(self):
        proc = make_process(mean_interarrival=2.5)
        draws = [proc.draw_interval() for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(2.5, rel=0.05)

    def test_batch_count_mean_and_floor(self):
        proc = make_process(jobs_per_arrival_mean=3.0, jobs_per_arrival_var=2.0)
        draws = [proc.draw_batch_count() for _ in range(20_000)]
        assert min(draws) >= 1
        assert np.mean(draws) == pytest.approx(3.0, abs=0.15)

    def test_job_size_mean_and_floor(self):
        proc = make_process(job_size_mean=5.0, job_size_var=1.0)
        draws = [proc.draw_job_size() for _ in range(20_000)]
        assert min(draws) >= MIN_JOB_SIZE
        assert np.mean(draws) == pytest.approx(5.0, abs=0.1)

    def test_batch_carries_sizes(self):
        proc = make_process()
        batch = proc.draw_batch(time=7.0)
        assert batch.time == 7.0
        assert batch.n_jobs == len(batch.sizes) >= 1
        assert batch.total_size == pytest.approx(sum(batch.sizes))


def run_batches(proc, until):
    """The batches *proc*'s run loop delivers before *until*."""
    env = Environment()
    seen = []
    env.process(proc.run(env, seen.append, until=until))
    env.run(until=until)
    return seen


class TestInSimulation:
    def test_all_batches_within_duration(self):
        batches = run_batches(make_process(), until=100.0)
        assert batches
        assert all(0 <= b.time < 100.0 for b in batches)

    def test_times_strictly_increasing(self):
        times = [b.time for b in run_batches(make_process(), until=200.0)]
        assert len(times) > 1
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_batch_count_scales_with_rate(self):
        slow = run_batches(make_process(seed=3, mean_interarrival=3.0), 3000.0)
        fast = run_batches(make_process(seed=3, mean_interarrival=2.0), 3000.0)
        assert len(fast) > len(slow)

    def test_run_delivers_batches_at_sim_times(self):
        env = Environment()
        proc = make_process(seed=4)
        seen = []
        env.process(proc.run(env, lambda b: seen.append((env.now, b)), until=50.0))
        env.run(until=60.0)
        assert seen
        for now, batch in seen:
            assert now == pytest.approx(batch.time)
            assert batch.time < 50.0

    def test_until_bound_respected(self):
        env = Environment()
        proc = make_process(seed=5)
        seen = []
        env.process(proc.run(env, lambda b: seen.append(b.time), until=20.0))
        env.run(until=100.0)
        assert all(t < 20.0 for t in seen)
        assert env.now <= 100.0


class TestLoadRate:
    def test_expected_load_rate(self):
        proc = make_process(
            mean_interarrival=2.0, jobs_per_arrival_mean=3.0, job_size_mean=5.0
        )
        assert proc.expected_load_rate() == pytest.approx(7.5)

    def test_table1_extremes(self):
        busy = make_process(mean_interarrival=2.0).expected_load_rate()
        quiet = make_process(mean_interarrival=3.0).expected_load_rate()
        assert busy / quiet == pytest.approx(1.5)
