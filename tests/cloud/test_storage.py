"""Tests for the shared filesystem."""

import pytest

from repro.cloud.storage import SharedFilesystem, TransferError
from repro.core.errors import CloudError


class TestSharedFilesystem:
    def test_write_takes_transfer_time(self, env):
        fs = SharedFilesystem(env, bandwidth_gb_per_tu=10.0)

        def proc(env, fs):
            meta = yield from fs.write("/input/bam/s1.bam", 20.0, "bam")
            return (env.now, meta)

        p = env.process(proc(env, fs))
        now, meta = env.run(until=p)
        assert now == pytest.approx(2.0)
        assert meta.size_gb == 20.0
        assert fs.exists("/input/bam/s1.bam")
        assert fs.bytes_written_gb == 20.0

    def test_bad_bandwidth_rejected(self, env):
        with pytest.raises(CloudError):
            SharedFilesystem(env, bandwidth_gb_per_tu=0)

    def test_negative_size_rejected(self, env):
        fs = SharedFilesystem(env)
        with pytest.raises(TransferError):
            fs.transfer_time(-1.0)
