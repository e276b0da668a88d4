"""Generator-based cooperative processes.

A :class:`Process` drives a Python generator: each ``yield``ed event suspends
the process until the event fires, at which point the event's value is sent
back into the generator (or its exception thrown, for failed events).  This
is the same programming model as SimPy.  In the SCAN simulation only the
long-lived loops are processes (the arrival process and the idle-worker
reaper); per-task steps -- stage executions, VM boots, fault timers -- run
as :meth:`Environment.defer <repro.desim.engine.Environment.defer>`
callbacks chained through timeouts, which cost no generator frame.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.desim.engine import (
    Environment,
    Event,
    PENDING,
    SimulationError,
    URGENT,
)

__all__ = ["Process", "Interrupt", "ProcessError"]


class ProcessError(SimulationError):
    """Raised for invalid process operations (e.g. yielding a non-event)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    Workers use this to model preemption and forced VM shutdown.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Process(Event):
    """An event that completes when its underlying generator returns.

    The process's value is the generator's return value; if the generator
    raises, the process fails with that exception.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: Environment, generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ProcessError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None when running
        #: or finished).
        self._target: Event | None = None
        # Kick off the process via an initialisation event so that the body
        # does not run until the event loop is turning.
        env.defer(self._resume)

    @property
    def target(self) -> Event | None:
        """The event the process is waiting on, if suspended."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if not self.is_alive:
            raise ProcessError(f"{self!r} has already terminated")
        if self is self.env.active_process:
            raise ProcessError("a process cannot interrupt itself")
        # Deliver via an urgent event so interrupts beat same-time timeouts.
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defuse()
        self.env.schedule(interrupt_event, priority=URGENT)
        interrupt_event.callbacks.append(self._resume_interrupt)

    # -- internal ----------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            # The process finished between scheduling and delivery; the
            # interrupt dissolves silently (SimPy semantics).
            return
        # Detach from the event we were waiting on, if any.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None
        self._step(event)

    def _resume(self, event: Event) -> None:
        self._target = None
        self._step(event)

    def _step(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        env = self.env
        prev_active, env._active_process = env._active_process, self
        try:
            while True:
                try:
                    if event._ok:
                        yielded = self._generator.send(event._value)
                    else:
                        event.defuse()
                        yielded = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    if self.callbacks:
                        env.schedule(self)
                    else:
                        # Nobody waits: mark it processed now instead of
                        # popping an empty callback list off the calendar.
                        # A waiter that comes later continues at once.
                        self.callbacks = None
                    return
                except BaseException as exc:
                    self._ok = False
                    self._value = exc
                    env.schedule(self)
                    return

                if not isinstance(yielded, Event):
                    error = ProcessError(
                        f"process yielded a non-event: {yielded!r}"
                    )
                    self._ok = False
                    self._value = error
                    self.defuse()
                    env.schedule(self)
                    raise error
                if yielded.callbacks is not None:
                    # Event still pending or triggered-but-unprocessed: wait.
                    self._target = yielded
                    yielded.callbacks.append(self._resume)
                    return
                # Event already processed: continue immediately with its
                # outcome (no trip through the calendar needed).
                event = yielded
        finally:
            env._active_process = prev_active

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name} at {id(self):#x}>"
