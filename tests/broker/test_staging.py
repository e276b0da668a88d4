"""Tests for data staging by prefetch."""

import pytest

from repro.broker.staging import DataStager
from repro.cloud.storage import SharedFilesystem
from repro.genomics.datasets import DataFormat, DatasetDescriptor


@pytest.fixture
def stager(env):
    fs = SharedFilesystem(env, bandwidth_gb_per_tu=10.0)
    return DataStager(env, fs)


def dataset(name="d", size=20.0):
    return DatasetDescriptor.from_size(name, DataFormat.BAM, size)


class TestStage:
    def test_stage_takes_transfer_time(self, env, stager):
        ds = dataset(size=20.0)
        process = stager.prefetch(ds)
        env.run(until=process)
        assert env.now == pytest.approx(2.0)  # 20 GB at 10 GB/TU
        assert stager.filesystem.exists(ds.path)
        assert stager.staged_count == 1

    def test_existing_file_not_restaged(self, env, stager):
        ds = dataset()
        env.run(until=env.process(stager.filesystem.write(ds.path, ds.size_gb)))
        t_written = env.now
        env.run(until=stager.prefetch(ds))
        assert env.now == pytest.approx(t_written)  # no second transfer
        assert stager.staged_count == 0


class TestPrefetch:
    def test_prefetch_overlaps_compute(self, env, stager):
        """Prefetching during compute means zero staging wait afterwards --
        the paper's 'upload required genome reference files just before
        they are needed to avoid a long waiting time'."""
        ds = dataset(size=20.0)  # 2 TU transfer

        def pipeline(env, stager):
            transfer = stager.prefetch(ds)
            yield env.timeout(3.0)  # compute longer than the transfer
            t_before = env.now
            yield transfer
            return env.now - t_before

        p = env.process(pipeline(env, stager))
        wait = env.run(until=p)
        assert wait == pytest.approx(0.0)

    def test_stage_joins_inflight_prefetch(self, env, stager):
        ds = dataset(size=20.0)

        def pipeline(env, stager):
            stager.prefetch(ds)
            yield env.timeout(0.5)  # prefetch not finished (needs 2 TU)
            yield stager.prefetch(ds)
            return env.now

        p = env.process(pipeline(env, stager))
        # Completes when the ORIGINAL prefetch finishes (t=2), not 2.5.
        assert env.run(until=p) == pytest.approx(2.0)
        assert stager.staged_count == 1

    def test_duplicate_prefetch_shares_process(self, env, stager):
        ds = dataset()
        p1 = stager.prefetch(ds)
        p2 = stager.prefetch(ds)
        assert p1 is p2
        env.run()
        assert stager.staged_count == 1
        assert stager.prefetch(ds) is p1  # a finished prefetch is reused too
        assert stager.staged_count == 1
