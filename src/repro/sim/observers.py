"""Stock bus observers: live monitors fed by simulation events.

These are ready-made :class:`~repro.core.bus.EventBus` subscribers for
the common "watch the run while it happens" cases.  Attach them through
:meth:`~repro.sim.builder.PlatformBuilder.add_observer` (or subscribe by
hand in tests).  All of them obey the bus's passivity rule: they record,
they never touch the simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.bus import EventBus, JobCompleted
from repro.desim.monitor import Monitor

if TYPE_CHECKING:
    from repro.sim.builder import BuiltPlatform

__all__ = ["LatencyMonitorObserver"]


class LatencyMonitorObserver:
    """A time-stamped :class:`~repro.desim.monitor.Monitor` of job latency.

    Before the bus, live latency tracking meant threading a Monitor into
    the scheduler; now it is one subscription on :class:`JobCompleted`.
    """

    def __init__(self, name: str = "latency") -> None:
        self.monitor = Monitor(name)

    def __call__(self, bus: EventBus, platform: "BuiltPlatform") -> None:
        bus.subscribe(JobCompleted, self._observe)

    def _observe(self, event: JobCompleted) -> None:
        self.monitor.observe(event.time, event.latency)
