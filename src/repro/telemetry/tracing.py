"""Span tracing with Chrome trace-event export.

The tracer records *spans* -- named, categorised intervals with free-form
attributes -- against two clocks at once:

- **sim time** (the session's ``Environment.now``), which becomes the
  span's position and extent on the exported timeline; and
- **wall time** (``time.perf_counter``), recorded as each span's
  ``wall_us`` argument.

Spans never touch the simulation: they draw no random numbers, schedule
no events and only *read* the clock, so a traced run's simulated results
are identical to an untraced one.

The export format is the Chrome trace-event JSON array ("X" complete
events plus "M" metadata, "i" instants and "C" counters), which loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
One "thread" lane is assigned per worker / stage queue / control track so
the scheduler's parallelism is visible as stacked lanes.

Sim time is exported at 1 TU = 1 second (10^6 trace microseconds), so a
600 TU session reads as a 10-minute timeline.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "Span",
    "SpanTracer",
    "LANE_CONTROL",
    "lane_for_stage",
    "lane_for_worker",
    "TU_TO_US",
]

#: Trace microseconds per simulated TU (1 TU renders as 1 second).
TU_TO_US = 1_000_000.0

#: Lane (tid) of engine/session-level control spans.
LANE_CONTROL = 0


def lane_for_stage(stage: int) -> int:
    """The lane carrying stage *stage*'s queue activity."""
    return 100 + stage


def lane_for_worker(uid: int) -> int:
    """The lane carrying worker *uid*'s boot and task executions."""
    return 1000 + uid


@dataclass(slots=True)
class Span:
    """One open interval; :meth:`SpanTracer.close` records it."""

    name: str
    cat: str
    lane: int
    args: Optional[dict[str, Any]]
    t0: float
    wall0: float


class SpanTracer:
    """Records spans/instants/counters; exports Chrome trace-event JSON.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current *simulated* time.
        Rebindable via :meth:`bind_clock` once the environment exists.
    wall:
        Wall-clock source (default ``time.perf_counter``).
    max_events:
        Hard cap on retained events; past it new events are counted in
        ``dropped`` instead of stored, so a runaway trace cannot exhaust
        memory.  Per-category counts keep running either way.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        wall: Callable[[], float] = time.perf_counter,
        max_events: int = 1_000_000,
    ) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._wall = wall
        self.max_events = max_events
        self._events: list[dict[str, Any]] = []
        self._lane_names: dict[int, str] = {}
        #: Span/instant counts per category (kept even past max_events).
        self.count_by_category: dict[str, int] = {}
        self.dropped = 0

    # -- clock ------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a live simulation clock (``env.now``)."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock()

    # -- lanes ------------------------------------------------------------
    def lane(self, tid: int, label: str) -> int:
        """Name a lane (idempotent); emitted as thread_name metadata."""
        if tid not in self._lane_names:
            self._lane_names[tid] = label
        return tid

    # -- recording --------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        cat: str,
        lane: int = LANE_CONTROL,
        args: Optional[dict[str, Any]] = None,
    ) -> Iterator[Span]:
        """A span around a ``with`` block (error-flagged if it raises)."""
        span = self.open(name, cat, lane, args)
        try:
            yield span
        except BaseException:
            self.close(span, error=True)
            raise
        self.close(span)

    def open(
        self,
        name: str,
        cat: str,
        lane: int = LANE_CONTROL,
        args: Optional[dict[str, Any]] = None,
    ) -> Span:
        """Open a span now; only :meth:`close` records it."""
        return Span(name, cat, lane, args, self._clock(), self._wall())

    def close(self, span: Span, error: bool = False) -> None:
        """Record *span* as ending now (``error`` flags a failed interval)."""
        t1 = self._clock()
        wall_dur = self._wall() - span.wall0
        self.count_by_category[span.cat] = (
            self.count_by_category.get(span.cat, 0) + 1
        )
        args = dict(span.args) if span.args else {}
        args["wall_us"] = round(wall_dur * 1e6, 3)
        if error:
            args["error"] = True
        self._push(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.t0 * TU_TO_US,
                "dur": max(t1 - span.t0, 0.0) * TU_TO_US,
                "pid": 1,
                "tid": span.lane,
                "args": args,
            }
        )

    def instant(
        self,
        name: str,
        cat: str,
        lane: int = LANE_CONTROL,
        args: Optional[dict[str, Any]] = None,
    ) -> None:
        """A zero-duration marker (scheduler decisions, faults, ...)."""
        self.count_by_category[cat] = self.count_by_category.get(cat, 0) + 1
        self._push(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": self._clock() * TU_TO_US,
                "pid": 1,
                "tid": lane,
                "s": "t",
                "args": dict(args) if args else {},
            }
        )

    def counter(
        self, name: str, cat: str, values: dict[str, float], lane: int = LANE_CONTROL
    ) -> None:
        """A counter sample; Perfetto renders these as value tracks."""
        self._push(
            {
                "name": name,
                "cat": cat,
                "ph": "C",
                "ts": self._clock() * TU_TO_US,
                "pid": 1,
                "tid": lane,
                "args": {k: float(v) for k, v in values.items()},
            }
        )

    def _push(self, event: dict[str, Any]) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)

    # -- export -----------------------------------------------------------
    @property
    def n_events(self) -> int:
        return len(self._events)

    def categories(self) -> set[str]:
        """Categories recorded so far."""
        return set(self.count_by_category)

    def to_chrome_trace(self) -> dict[str, Any]:
        """The full trace as a Chrome trace-event JSON object."""
        meta: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "scan-sim"},
            }
        ]
        for tid in sorted(self._lane_names):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": self._lane_names[tid]},
                }
            )
            # sort_index keeps lanes in control/queue/worker order.
            meta.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        return {
            "traceEvents": meta + self._events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tu_to_us": TU_TO_US,
                "dropped_events": self.dropped,
            },
        }

    def write(self, path: str) -> None:
        """Serialise the trace to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)
