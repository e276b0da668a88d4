"""Event loop, clock and primitive events for the simulation kernel.

The design follows the classic event-calendar architecture: a binary heap of
``(time, priority, sequence, event)`` entries, popped in order.  ``sequence``
is a monotonically increasing tie-breaker so that events scheduled at the
same instant fire in FIFO order, which keeps simulations deterministic.

Only the mechanisms needed by the SCAN simulation are implemented, but they
are implemented completely: callback chaining, success/failure values,
defused failures, and ``run(until=...)`` semantics.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "StopSimulation",
    "EmptySchedule",
    "SimulationError",
    "PENDING",
    "URGENT",
    "NORMAL",
]

#: Sentinel for an event that has not yet been given a value.
PENDING = object()

#: Scheduling priority for events that must fire before same-time normals.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Thrown into the event loop to halt :meth:`Environment.run` early.

    ``run(until=event)`` registers a callback on *event* that raises this
    exception carrying the event's value.
    """

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value

    @classmethod
    def callback(cls, event: "Event") -> None:
        """Event callback that stops the simulation with the event's value."""
        if event.ok:
            raise cls(event.value)
        raise event.value  # pragma: no cover - defensive re-raise


class Event:
    """A schedulable occurrence with a value and a callback list.

    An event passes through three states: *pending* (created, value unknown),
    *triggered* (scheduled on the calendar with a value) and *processed*
    (callbacks have run).  Events may succeed or fail; a failed event whose
    exception is never retrieved will propagate out of the event loop unless
    it has been :meth:`defused <defuse>`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_scheduled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks to invoke when the event is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._scheduled: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value and scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception, for failed events)."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not crash the loop."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* as its value."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed *delay* of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env.schedule(self, delay=self.delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Environment:
    """Simulation environment: the clock and the event calendar.

    Parameters
    ----------
    initial_time:
        The clock value at which the simulation starts (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time; only the event loop advances it.
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process = None  # set by Process during resume

    @property
    def active_process(self):
        """The :class:`~repro.desim.process.Process` currently executing."""
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires ``delay`` from now."""
        return Timeout(self, delay, value)

    def defer(self, callback: Callable[[Event], None], value: Any = None) -> Event:
        """Call *callback* from the calendar at the current instant.

        Schedules an URGENT event at ``now`` whose value is *value* and
        whose only callback is *callback*: the hop a new process makes
        before its body runs.  Deferred callbacks of one instant run in
        the order they were deferred, after the URGENT events already
        queued for it and ahead of every NORMAL event of that instant.
        A callback that needs to wait ``d`` more time units appends its
        continuation to ``env.timeout(d, value).callbacks``.
        """
        event = Event(self)
        event._value = value
        event.callbacks = [callback]
        event._scheduled = True
        heapq.heappush(self._queue, (self.now, URGENT, self._seq, event))
        self._seq += 1
        return event

    def process(self, generator) -> "Any":
        """Spawn a :class:`~repro.desim.process.Process` from *generator*."""
        from repro.desim.process import Process

        return Process(self, generator)

    # -- scheduling ---------------------------------------------------------
    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Place *event* on the calendar ``delay`` time units from now."""
        if event._scheduled:
            raise SimulationError(f"{event!r} is already scheduled")
        event._scheduled = True
        heapq.heappush(self._queue, (self.now + delay, priority, self._seq, event))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event on the calendar."""
        try:
            when, _prio, _seq, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        if when < self.now:  # pragma: no cover - heap guarantees ordering
            raise SimulationError("event scheduled in the past")
        self.now = when

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure: crash the simulation loudly rather than
            # silently dropping the error.
            exc = event._value
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until the calendar is exhausted;
        - a number: run until the clock reaches that time;
        - an :class:`Event`: run until that event is processed, returning its
          value.
        """
        stop_value: Any = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed: nothing to run.
                    return until.value
                until.callbacks.append(StopSimulation.callback)
            else:
                at = float(until)
                if at < self.now:
                    raise ValueError(
                        f"until={at} lies in the past (now={self.now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                heapq.heappush(self._queue, (at, URGENT, self._seq, stop))
                self._seq += 1
                stop.callbacks.append(StopSimulation.callback)

        # Hot path: when nothing shadows ``step`` (no instance shim such
        # as perfbench's traced ``desim.step``, no subclass override), run
        # an inlined pop loop -- local bindings for the heap and pop, no
        # per-event method call, no re-checking the heap invariant.  Instrumented environments
        # keep dispatching through ``self.step`` so shims see every event.
        fast = type(self) is Environment and "step" not in self.__dict__
        try:
            if fast:
                queue = self._queue
                pop = heapq.heappop
                while True:
                    try:
                        when, _prio, _seq, event = pop(queue)
                    except IndexError:
                        raise EmptySchedule() from None
                    self.now = when
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
            else:
                while True:
                    self.step()
        except StopSimulation as stop_exc:
            stop_value = stop_exc.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise SimulationError(
                    "simulation ran out of events before the 'until' event "
                    "was triggered"
                ) from None
            stop_value = None
        return stop_value

    def close(self) -> None:
        """Abandon the run: empty the calendar and every waiting process.

        Each queued event loses its callbacks, and the generator of every
        process resumed by one is closed where it waits.  A finished run
        thereby holds no suspended frame and no callback cycle, so its
        components die by reference counting once the caller drops them.
        The clock stays where the run left it.
        """
        from repro.desim.process import Process

        queue, self._queue = self._queue, []
        for _when, _prio, _seq, event in queue:
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                process = getattr(callback, "__self__", None)
                if isinstance(process, Process):
                    process._generator.close()

    def __repr__(self) -> str:
        return f"<Environment now={self.now} pending={len(self._queue)}>"
