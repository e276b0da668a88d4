"""Tests for the shared filesystem and replicated KV store."""

import pytest

from repro.cloud.storage import ReplicatedKVStore, SharedFilesystem, TransferError
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
        assert fs.total_size_gb() == 20.0

    def test_read_takes_transfer_time(self, env):
        fs = SharedFilesystem(env, bandwidth_gb_per_tu=10.0)

        def proc(env, fs):
            yield from fs.write("/f", 10.0)
            yield from fs.read("/f")
            return env.now

        p = env.process(proc(env, fs))
        assert env.run(until=p) == pytest.approx(2.0)
        assert fs.bytes_read_gb == 10.0

    def test_read_missing_raises(self, env):
        fs = SharedFilesystem(env)

        def proc(env, fs):
            yield from fs.read("/nope")

        env.process(proc(env, fs))
        with pytest.raises(TransferError):
            env.run()

    def test_delete(self, env):
        fs = SharedFilesystem(env, bandwidth_gb_per_tu=1e9)
        env.run(until=env.process(fs.write("/x", 1.0)))
        assert fs.delete("/x")
        assert not fs.delete("/x")

    def test_bad_bandwidth_rejected(self, env):
        with pytest.raises(CloudError):
            SharedFilesystem(env, bandwidth_gb_per_tu=0)

    def test_negative_size_rejected(self, env):
        fs = SharedFilesystem(env)
        with pytest.raises(TransferError):
            fs.transfer_time(-1.0)


class TestReplicatedKVStore:
    def test_put_get_roundtrip(self, env):
        kv = ReplicatedKVStore(env)

        def proc(env, kv):
            yield from kv.put("worker:1", {"state": "busy"})
            value = yield from kv.get("worker:1")
            return value

        p = env.process(proc(env, kv))
        assert env.run(until=p) == {"state": "busy"}
        assert kv.reads == 1 and kv.writes == 1

    def test_get_missing_returns_default(self, env):
        kv = ReplicatedKVStore(env)

        def proc(env, kv):
            value = yield from kv.get("nope", default="fallback")
            return value

        p = env.process(proc(env, kv))
        assert env.run(until=p) == "fallback"

    def test_latencies_modelled(self, env):
        kv = ReplicatedKVStore(env, read_latency_tu=0.1, write_latency_tu=0.2)

        def proc(env, kv):
            yield from kv.put("k", 1)
            yield from kv.get("k")
            return env.now

        p = env.process(proc(env, kv))
        assert env.run(until=p) == pytest.approx(0.3)

    def test_quorum_is_majority(self, env):
        assert ReplicatedKVStore(env, replicas=3).quorum == 2
        assert ReplicatedKVStore(env, replicas=5).quorum == 3
        assert ReplicatedKVStore(env, replicas=1).quorum == 1

    def test_keys_and_len(self, env):
        kv = ReplicatedKVStore(env)
        env.run(until=env.process(kv.put("b", 1)))
        env.run(until=env.process(kv.put("a", 2)))
        assert kv.keys() == ["a", "b"]
        assert len(kv) == 2

    def test_validation(self, env):
        with pytest.raises(CloudError):
            ReplicatedKVStore(env, replicas=0)
        with pytest.raises(CloudError):
            ReplicatedKVStore(env, read_latency_tu=-1)
