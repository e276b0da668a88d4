"""Every started execution ends in exactly one ``TaskFinished``.

The event-level form of "jobs are never lost": per worker, the bus
carries ``TaskStarted`` and ``TaskFinished`` strictly alternating, and
the starts still unmatched when the run stops are exactly the executions
the scheduler holds as in flight.  The trace's task spans are built from
these pairs, so a missing finish would silently drop a span.
"""

from __future__ import annotations

import pytest

from repro.core.bus import TaskFinished, TaskStarted
from repro.core.presets import make_preset
from repro.sim.session import SimulationSession


def _run(preset: str, duration: float):
    events = []
    built = []

    def observe(bus, platform):
        built.append(platform)
        bus.subscribe(TaskStarted, events.append)
        bus.subscribe(TaskFinished, events.append)

    config = make_preset(preset).with_overrides(
        simulation={"duration": duration}
    )
    SimulationSession(config, observers=[observe]).run(seed=5)
    return events, built[0].scheduler


@pytest.mark.parametrize("preset,duration", [("chaos", 300.0),
                                             ("fanout", 150.0)])
def test_starts_and_finishes_alternate_per_worker(preset, duration):
    events, scheduler = _run(preset, duration)
    running: dict[int, TaskStarted] = {}
    outcomes = set()
    losses = 0
    for event in events:
        if isinstance(event, TaskStarted):
            assert event.worker not in running, event
            running[event.worker] = event
        else:
            started = running.pop(event.worker)
            assert (started.job, started.stage) == (event.job, event.stage)
            outcomes.add(event.outcome)
            losses += event.outcome == "speculative_loss"
    assert len(running) == len(scheduler._executing)
    assert set(running) == {w.uid for w in scheduler._executing}
    assert "completed" in outcomes
    if preset == "chaos":
        assert {"vm_failure", "corrupted", "speculative_loss"} <= outcomes
        # A twin cancelled while still queued never ran, so lost no race.
        assert scheduler.speculation.lost == losses
