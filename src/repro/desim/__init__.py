"""Discrete-event simulation kernel.

A from-scratch, deterministic discrete-event simulation engine in the style
of SimPy, built as the substrate for the SCAN cloud simulation.  The paper's
evaluation (Section IV) is a discrete-event simulation of GATK pipelines on
a hybrid cloud; this package provides:

- :class:`~repro.desim.engine.Environment` -- the event loop and clock;
  ``defer`` runs a callback from the calendar at the current instant.
- :class:`~repro.desim.engine.Event`, :class:`~repro.desim.engine.Timeout` --
  primitive schedulable events.
- :class:`~repro.desim.process.Process` -- generator-based cooperative
  processes (``yield env.timeout(3)`` style).
- :mod:`~repro.desim.monitor` -- observation series and time-weighted
  levels (:class:`~repro.desim.monitor.Monitor`,
  :class:`~repro.desim.monitor.TimeWeightedMonitor`).
- :mod:`~repro.desim.rng` -- deterministic named random streams.

Worker pools, core accounting and task queues are modelled by the
scheduler and cloud layers themselves, not by kernel resources.
"""

from repro.desim.engine import (
    Environment,
    Event,
    Timeout,
    StopSimulation,
    EmptySchedule,
    SimulationError,
)
from repro.desim.process import Process, Interrupt, ProcessError
from repro.desim.monitor import Monitor, TimeWeightedMonitor
from repro.desim.rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "StopSimulation",
    "EmptySchedule",
    "SimulationError",
    "Process",
    "Interrupt",
    "ProcessError",
    "Monitor",
    "TimeWeightedMonitor",
    "RandomStreams",
]
