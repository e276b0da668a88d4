"""Storage stand-ins: shared filesystem (CIFS) and replicated KV (Cassandra).

"The current SCAN implementation realises the design using ... existing
Linux and Windows services for the workers, CIFS for the shared filesystem
and Apache Cassandra for the database" (paper Section III-B).  The
simulation only needs their *timing and visibility* semantics:

- :class:`SharedFilesystem` -- a path -> metadata namespace with a bandwidth
  model, so data staging has a simulated duration ("analysis processes
  spend large proportions of their running time on blocked I/O").
- :class:`ReplicatedKVStore` -- an eventually-consistent-flavoured KV map
  with per-replica read/write latency, standing in for Cassandra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.errors import CloudError
from repro.desim.engine import Environment

__all__ = ["FileMeta", "SharedFilesystem", "ReplicatedKVStore", "TransferError"]


class TransferError(CloudError):
    """A staging/transfer failure (missing file, bad size)."""


@dataclass(frozen=True)
class FileMeta:
    """Metadata for one stored file."""

    path: str
    size_gb: float
    created_at: float
    #: Free-form type tag (matches the 'data type' column of Figure 2).
    data_type: str = ""


class SharedFilesystem:
    """A shared namespace with a transfer-time model.

    ``bandwidth_gb_per_tu`` converts file sizes into staging delays;
    concurrent transfers share nothing (each takes its full time), which
    is pessimistic but simple -- the paper's stages are compute-bound, so
    staging is a secondary effect here.
    """

    def __init__(self, env: Environment, bandwidth_gb_per_tu: float = 60.0) -> None:
        if bandwidth_gb_per_tu <= 0:
            raise CloudError("bandwidth must be positive")
        self.env = env
        self.bandwidth_gb_per_tu = bandwidth_gb_per_tu
        self._files: dict[str, FileMeta] = {}
        self.bytes_written_gb = 0.0
        self.bytes_read_gb = 0.0

    def exists(self, path: str) -> bool:
        """Whether *path* is present in the namespace."""
        return path in self._files

    def stat(self, path: str) -> FileMeta:
        """Metadata for *path*; raises TransferError if absent."""
        try:
            return self._files[path]
        except KeyError:
            raise TransferError(f"no such file: {path}") from None

    def transfer_time(self, size_gb: float) -> float:
        """Staging delay for *size_gb* at the modeled bandwidth (TU)."""
        if size_gb < 0:
            raise TransferError(f"negative size {size_gb}")
        return size_gb / self.bandwidth_gb_per_tu

    def write(self, path: str, size_gb: float, data_type: str = ""):
        """Process: stage a file in; completes after the transfer time."""
        delay = self.transfer_time(size_gb)
        if delay > 0:
            yield self.env.timeout(delay)
        meta = FileMeta(
            path=path, size_gb=size_gb, created_at=self.env.now, data_type=data_type
        )
        self._files[path] = meta
        self.bytes_written_gb += size_gb
        return meta

    def read(self, path: str):
        """Process: fetch a file; completes after the transfer time."""
        meta = self.stat(path)
        delay = self.transfer_time(meta.size_gb)
        if delay > 0:
            yield self.env.timeout(delay)
        self.bytes_read_gb += meta.size_gb
        return meta

    def delete(self, path: str) -> bool:
        """Remove *path*; True if it existed."""
        return self._files.pop(path, None) is not None

    def total_size_gb(self) -> float:
        """Sum of stored file sizes (GB)."""
        return sum(m.size_gb for m in self._files.values())


class ReplicatedKVStore:
    """A Cassandra-flavoured KV store: N replicas, quorum-latency model.

    Writes land on all replicas after ``write_latency_tu``; reads return
    the latest committed value after ``read_latency_tu``.  The replica
    count only affects the latency model (quorum = majority), matching the
    role Cassandra plays in the prototype (task/worker state tables).
    """

    def __init__(
        self,
        env: Environment,
        replicas: int = 3,
        read_latency_tu: float = 0.001,
        write_latency_tu: float = 0.002,
    ) -> None:
        if replicas < 1:
            raise CloudError("need at least one replica")
        if read_latency_tu < 0 or write_latency_tu < 0:
            raise CloudError("latencies must be >= 0")
        self.env = env
        self.replicas = replicas
        self.read_latency_tu = read_latency_tu
        self.write_latency_tu = write_latency_tu
        self._data: dict[str, tuple[float, Any]] = {}
        self.reads = 0
        self.writes = 0

    @property
    def quorum(self) -> int:
        return self.replicas // 2 + 1

    def put(self, key: str, value: Any):
        """Process: quorum write."""
        if self.write_latency_tu > 0:
            yield self.env.timeout(self.write_latency_tu)
        self._data[key] = (self.env.now, value)
        self.writes += 1
        return value

    def get(self, key: str, default: Any = None):
        """Process: quorum read; returns *default* for missing keys."""
        if self.read_latency_tu > 0:
            yield self.env.timeout(self.read_latency_tu)
        self.reads += 1
        entry = self._data.get(key)
        return entry[1] if entry is not None else default

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> list[str]:
        """All stored keys, sorted."""
        return sorted(self._data)
