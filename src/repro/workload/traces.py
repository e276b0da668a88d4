"""Arrival-trace record and replay.

Recording a trace and replaying it against different scheduler policies
gives a *paired* comparison (identical arrivals), tightening the error
bars beyond the common-random-number effect the seeded streams already
provide.  Traces serialize to plain dicts for JSON fixtures, and to JSONL
files (one batch object per line) with :func:`save_trace_jsonl`.

A JSONL file is the one replay input: the ``"trace"`` entry in
:data:`~repro.workload.arrivals.ARRIVAL_PROCESSES`, selected with
``workload.arrival_process = "trace"`` plus ``workload.arrival_trace =
<path>``, loads it (:func:`load_trace_jsonl` validates every line) into a
:class:`TraceArrivalProcess`.  Replay draws no randomness, so two
sessions over one file see the same arrivals whatever their seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.core.errors import WorkloadError
from repro.desim.engine import Environment
from repro.workload.arrivals import ArrivalBatch, BatchArrivalProcess

__all__ = [
    "ArrivalTrace",
    "TraceArrivalProcess",
    "record_trace",
    "save_trace_jsonl",
    "load_trace_jsonl",
]


@dataclass(frozen=True)
class ArrivalTrace:
    """An immutable, time-ordered sequence of arrival batches."""

    batches: tuple[ArrivalBatch, ...]

    def __post_init__(self) -> None:
        last = -1.0
        for batch in self.batches:
            if batch.time < last:
                raise WorkloadError("trace batches are not time-ordered")
            last = batch.time

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self):
        return iter(self.batches)

    @property
    def n_jobs(self) -> int:
        return sum(b.n_jobs for b in self.batches)

    @property
    def duration(self) -> float:
        return self.batches[-1].time if self.batches else 0.0


class TraceArrivalProcess:
    """A recorded trace as a drop-in arrival process.

    Satisfies :class:`~repro.workload.arrivals.ArrivalProcess`, so the
    session builder can swap it for the Poisson generator: ``generate``
    filters the recording by horizon, ``run`` delivers each batch at its
    recorded timestamp.  The replay is exact -- the batches are not drawn
    from a shared seed, they *are* the recorded batches.
    """

    def __init__(self, trace: ArrivalTrace) -> None:
        self.trace = trace

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "TraceArrivalProcess":
        """Load a replayable process from a JSONL trace file."""
        return cls(load_trace_jsonl(path))

    def generate(self, duration: float):
        """Yield the recorded batches arriving in [0, duration)."""
        if duration <= 0:
            raise WorkloadError("duration must be positive")
        for batch in self.trace:
            if batch.time >= duration:
                return
            yield batch

    def run(
        self,
        env: Environment,
        on_batch: Callable[[ArrivalBatch], None],
        until: Optional[float] = None,
    ):
        """Process: deliver recorded batches at their recorded times."""
        for batch in self.trace:
            if until is not None and batch.time >= until:
                return
            delay = batch.time - env.now
            if delay > 0:
                yield env.timeout(delay)
            on_batch(batch)

    def expected_load_rate(self) -> float:
        """Mean job-size units per TU over the recorded span."""
        span = self.trace.duration
        if span <= 0:
            return 0.0
        total = sum(b.total_size for b in self.trace)
        return total / span


def record_trace(process: BatchArrivalProcess, duration: float) -> ArrivalTrace:
    """Generate and freeze all arrivals in [0, duration)."""
    return ArrivalTrace(tuple(process.generate(duration)))


def save_trace_jsonl(
    path: Union[str, Path], trace: "ArrivalTrace | Iterable[ArrivalBatch]"
) -> int:
    """Write a trace as JSONL (one batch object per line); returns rows."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for batch in trace:
            fh.write(
                json.dumps({"time": batch.time, "sizes": list(batch.sizes)})
                + "\n"
            )
            count += 1
    return count


def load_trace_jsonl(path: Union[str, Path]) -> ArrivalTrace:
    """Read a JSONL trace file, validating every line.

    Malformed lines raise :class:`WorkloadError` naming the file and line
    number; ordering is validated by :class:`ArrivalTrace` itself.
    """
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"arrival trace not found: {path}")
    batches: list[ArrivalBatch] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise WorkloadError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if (
                not isinstance(obj, dict)
                or "time" not in obj
                or "sizes" not in obj
            ):
                raise WorkloadError(
                    f"{path}:{lineno}: expected an object with "
                    f"'time' and 'sizes'"
                )
            try:
                time = float(obj["time"])
                sizes = tuple(float(s) for s in obj["sizes"])
            except (TypeError, ValueError) as exc:
                raise WorkloadError(
                    f"{path}:{lineno}: non-numeric time or sizes"
                ) from exc
            # json.loads parses NaN/Infinity tokens, and NaN compares
            # false against every bound, so test finiteness explicitly.
            if not math.isfinite(time) or time < 0:
                raise WorkloadError(
                    f"{path}:{lineno}: time must be finite and >= 0"
                )
            if not sizes or any(
                not math.isfinite(s) or s <= 0 for s in sizes
            ):
                raise WorkloadError(
                    f"{path}:{lineno}: batches need >= 1 finite positive size"
                )
            batches.append(ArrivalBatch(time=time, sizes=sizes))
    return ArrivalTrace(tuple(batches))
