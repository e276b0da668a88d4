"""Data staging: supply data ahead of the analysis that needs it.

"we also need an intelligent mechanism that can supply data when required
with the progress of analysis execution.  For example, it could upload
required genome reference files just before they are needed to avoid a
long waiting time" (paper Section I).

:class:`DataStager` *prefetches* datasets into the simulated shared
filesystem: each transfer runs as a background process, so it overlaps
compute instead of blocking it.  The facade prefetches every shard as it
submits the shard's job.
"""

from __future__ import annotations

from repro.cloud.storage import SharedFilesystem
from repro.desim.engine import Environment
from repro.desim.process import Process
from repro.genomics.datasets import DatasetDescriptor

__all__ = ["DataStager"]


class DataStager:
    """Stages dataset descriptors into a shared filesystem."""

    def __init__(self, env: Environment, filesystem: SharedFilesystem) -> None:
        self.env = env
        self.filesystem = filesystem
        self._prefetches: dict[str, Process] = {}
        self.staged_count = 0

    def prefetch(self, dataset: DatasetDescriptor) -> Process:
        """Start staging *dataset* in the background; returns the process.

        A second prefetch of the same path returns the first one's process;
        a path already in the filesystem is not transferred again.
        """
        existing = self._prefetches.get(dataset.path)
        if existing is not None:
            return existing
        process = self.env.process(self._prefetch_body(dataset))
        self._prefetches[dataset.path] = process
        return process

    def _prefetch_body(self, dataset: DatasetDescriptor):
        if not self.filesystem.exists(dataset.path):
            yield from self.filesystem.write(
                dataset.path, dataset.size_gb, data_type=dataset.format.value
            )
            self.staged_count += 1
