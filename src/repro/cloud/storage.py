"""Storage stand-in: the shared filesystem (CIFS).

"The current SCAN implementation realises the design using ... existing
Linux and Windows services for the workers, CIFS for the shared filesystem
and Apache Cassandra for the database" (paper Section III-B).  The
simulation only needs the filesystem's *timing and visibility* semantics:
:class:`SharedFilesystem` is a path -> metadata namespace with a bandwidth
model, so data staging has a simulated duration ("analysis processes
spend large proportions of their running time on blocked I/O").  The
Cassandra database is not modelled: the simulated scheduler keeps its
task and worker state in memory, so nothing would read or write it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import CloudError
from repro.desim.engine import Environment

__all__ = ["FileMeta", "SharedFilesystem", "TransferError"]


class TransferError(CloudError):
    """A staging/transfer failure (a negative size)."""


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

    def exists(self, path: str) -> bool:
        """Whether *path* is present in the namespace."""
        return path in self._files

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
