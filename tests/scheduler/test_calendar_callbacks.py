"""Per-task steps run as calendar callbacks, not generator processes.

Stage executions, worker boots, fault timers, retry backoffs and
redispatch wakers are ``Environment.defer`` callbacks chained through
timeouts; a session creates exactly two processes, the arrival process
and the idle-worker reaper.  Each callback keeps the URGENT hop the
process it replaced made, so an interrupt still beats a finish due at
the same instant, and one delivered after the finish still dissolves.
"""

from __future__ import annotations

import pytest

from repro.core.bus import StageCompleted, TaskFinished
from repro.core.presets import make_preset
from repro.desim.engine import Environment
from repro.desim.process import Process
from repro.desim.rng import RandomStreams
from repro.scheduler.tasks import Job
from repro.sim.builder import PlatformBuilder
from repro.sim.session import SimulationSession


@pytest.mark.parametrize("preset", ["busy", "fanout", "chaos"])
def test_a_session_creates_only_the_arrival_process_and_the_reaper(
    preset, monkeypatch
):
    created = []
    init = Process.__init__

    def counting_init(self, env, generator):
        created.append(generator.__qualname__)
        init(self, env, generator)

    monkeypatch.setattr(Process, "__init__", counting_init)
    config = make_preset(preset).with_overrides(simulation={"duration": 300.0})
    result = SimulationSession(config).run(seed=3)
    assert result.completed_runs > 0
    assert created == ["WorkerPools.start_reaper", "BatchArrivalProcess.run"]


def _one_running_task():
    """A fault-free platform with one stage execution in flight."""
    env = Environment()
    platform = PlatformBuilder(make_preset("smoke")).build(
        env, RandomStreams(3)
    )
    scheduler = platform.scheduler
    outcomes = []
    platform.bus.subscribe(TaskFinished, lambda e: outcomes.append(e.outcome))
    platform.bus.subscribe(
        StageCompleted, lambda e: outcomes.append("stage_completed")
    )
    scheduler.submit(Job(app=scheduler.app, size=4.0, submit_time=env.now))
    while not scheduler._executing:
        env.step()
    ((worker, run),) = scheduler._executing.items()
    finish = run.started_at + run.duration
    # Stop at the finish instant, before any of its events have fired.
    env.run(until=finish)
    assert run.running and env.now == finish
    return env, scheduler, worker, run, outcomes


def test_an_interrupt_at_the_finish_instant_wins():
    env, scheduler, worker, run, outcomes = _one_running_task()
    scheduler.pools._kill(worker)  # the VM dies as the task would finish
    env.run(until=env.now + 0.01)
    assert not run.running
    assert outcomes == ["vm_failure"]
    assert worker not in scheduler._executing
    assert scheduler.task_retries == 1


def test_an_interrupt_after_the_finish_dissolves():
    env, scheduler, worker, run, outcomes = _one_running_task()
    while run.running:
        env.step()
    assert outcomes == ["completed", "stage_completed"]
    now = env.now
    scheduler._interrupt(run, "vm-failure")
    env.run(until=now + 0.01)
    assert outcomes[:2] == ["completed", "stage_completed"]
    assert "vm_failure" not in outcomes
    assert scheduler.task_retries == 0
    assert worker.alive
