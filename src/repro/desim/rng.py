"""Deterministic named random streams.

Every stochastic component of the simulation (arrival process, job sizes,
stage noise) draws from its own named stream derived from a single root
seed via :class:`numpy.random.SeedSequence`.  This gives:

- reproducibility: one seed fixes the whole simulation;
- independence: adding draws to one component does not perturb another;
- variance reduction across compared configurations (common random numbers):
  two scheduler policies replayed against the same seed see the *same*
  arrival trace.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A factory of independent, reproducible ``numpy`` generators.

    Streams are keyed by name; requesting the same name twice returns the
    same generator object.  Child stream seeds are derived by hashing the
    name into the root :class:`~numpy.random.SeedSequence`, so the mapping
    name -> stream is stable regardless of request order.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._root = np.random.SeedSequence(self._seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it deterministically."""
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed from the name so that order of creation
            # does not matter: hash the name into stable 32-bit words.
            # The root's own spawn_key is preserved so spawned children
            # stay independent of their parent.
            words = _name_words(name)
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=tuple(self._root.spawn_key) + tuple(words),
            )
            gen = np.random.Generator(np.random.PCG64(child))
            self._streams[name] = gen
        return gen

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.stream(name)

    def names(self) -> Iterator[str]:
        """Names of the streams created so far, sorted."""
        return iter(sorted(self._streams))


def _name_words(name: str) -> list[int]:
    """Hash *name* into a list of stable non-negative 32-bit words.

    Uses FNV-1a over UTF-8 bytes, chunked; pure-Python and platform-stable
    (unlike built-in ``hash``, which is salted per process).
    """
    data = name.encode("utf-8")
    words: list[int] = []
    acc = 0x811C9DC5
    for i, byte in enumerate(data):
        acc ^= byte
        acc = (acc * 0x01000193) & 0xFFFFFFFF
        if i % 4 == 3:
            words.append(acc)
    words.append(acc ^ len(data))
    return words
