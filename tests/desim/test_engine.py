"""Tests for the event loop and primitive events."""

import pytest

from repro.desim.engine import (
    EmptySchedule,
    Environment,
    Event,
    SimulationError,
    Timeout,
)


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_carries_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("late"))

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        env.run()
        assert seen == ["payload"]
        assert event.processed


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_fires_at_scheduled_time(self, env):
        fired = []
        t = env.timeout(5.5, value="done")
        t.callbacks.append(lambda e: fired.append((env.now, e.value)))
        env.run()
        assert fired == [(5.5, "done")]

    def test_zero_delay_fires_now(self, env):
        fired = []
        env.timeout(0).callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [0.0]


class TestClock:
    def test_initial_time(self):
        assert Environment(initial_time=100.0).now == 100.0

    def test_run_until_number_stops_clock_exactly(self, env):
        env.timeout(10)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_raises(self, env):
        env.timeout(1)
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=2)

    def test_events_fire_in_time_order(self, env):
        order = []
        for delay in (3.0, 1.0, 2.0):
            env.timeout(delay, value=delay).callbacks.append(
                lambda e: order.append(e.value)
            )
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_events_fire_fifo(self, env):
        order = []
        for tag in "abc":
            env.timeout(1.0, value=tag).callbacks.append(
                lambda e: order.append(e.value)
            )
        env.run()
        assert order == ["a", "b", "c"]

    def test_peek_reports_next_event_time(self, env):
        assert env.peek() == float("inf")
        env.timeout(7.0)
        assert env.peek() == 7.0

    def test_step_on_empty_schedule_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()


class TestRunUntilEvent:
    def test_returns_event_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"
        assert env.now == 2.0

    def test_run_until_already_processed_event(self, env):
        event = env.event()
        event.succeed("early")
        env.run()
        assert env.run(until=event) == "early"

    def test_starved_until_event_raises(self, env):
        event = env.event()  # never triggered
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=event)


class TestFailurePropagation:
    def test_unhandled_failure_crashes_loop(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        event.defuse()
        env.run()  # must not raise


class TestFastLoop:
    """``run`` inlines the pop loop only when ``step`` is untouched.

    perfbench's traced run installs an instance-attribute ``step`` shim,
    and tests may subclass ``Environment`` -- both must keep routing every
    event through the overridden ``step``, and both paths must produce the
    same trace as the fast loop.
    """

    @staticmethod
    def _schedule_workload(env):
        trace = []
        for delay in (3.0, 1.0, 1.0, 2.0, 0.0):
            env.timeout(delay, value=delay).callbacks.append(
                lambda e: trace.append((env.now, e.value))
            )
        return trace

    def test_instance_step_shim_sees_every_event(self):
        env = Environment()
        trace = self._schedule_workload(env)
        stepped = []

        original_step = env.step

        def shim():
            stepped.append(env.peek())
            original_step()

        env.step = shim
        env.run()
        # Five events, plus the final empty-calendar call that ends the run.
        assert stepped == [0.0, 1.0, 1.0, 2.0, 3.0, float("inf")]
        assert trace == [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_subclass_step_override_is_honoured(self):
        calls = []

        class CountingEnvironment(Environment):
            def step(self):
                calls.append(self.peek())
                super().step()

        env = CountingEnvironment()
        self._schedule_workload(env)
        env.run()
        assert calls == [0.0, 1.0, 1.0, 2.0, 3.0, float("inf")]

    def test_fast_and_instrumented_traces_identical(self):
        fast_env = Environment()
        fast_trace = self._schedule_workload(fast_env)
        fast_env.run()

        slow_env = Environment()
        slow_trace = self._schedule_workload(slow_env)
        slow_env.step = slow_env.step  # force the dispatching slow path
        slow_env.run()

        assert fast_trace == slow_trace
        assert fast_env.now == slow_env.now

    def test_fast_loop_propagates_unhandled_failure(self, env):
        env.timeout(1.0)
        event = env.event()
        event.fail(RuntimeError("fast boom"))
        with pytest.raises(RuntimeError, match="fast boom"):
            env.run()

    def test_fast_loop_honours_until_time(self, env):
        trace = self._schedule_workload(env)
        env.run(until=1.5)
        assert env.now == 1.5
        assert [value for _, value in trace] == [0.0, 1.0, 1.0]


class TestClose:
    """``close`` abandons a run: an empty calendar and no live frame."""

    def test_close_empties_the_calendar_and_keeps_the_clock(self, env):
        fired = []
        env.timeout(5.0).callbacks.append(fired.append)
        env.run(until=2.0)
        env.close()
        assert env.peek() == float("inf")
        assert env.now == 2.0
        env.run()  # nothing left to fire
        assert fired == []

    def test_close_closes_every_waiting_process(self, env):
        exits = []

        def sleeper(delay):
            try:
                yield env.timeout(delay)
            except GeneratorExit:
                exits.append(delay)
                raise

        processes = [env.process(sleeper(d)) for d in (3.0, 7.0)]
        env.run(until=1.0)
        env.close()
        assert sorted(exits) == [3.0, 7.0]
        # Closed, not finished: neither process produced a value.
        assert all(p.is_alive for p in processes)
        assert all(p._generator.gi_frame is None for p in processes)

    def test_close_closes_a_process_that_never_started(self, env):
        started = []

        def body():
            started.append(True)
            yield env.timeout(1.0)

        process = env.process(body())
        env.close()
        assert started == []
        assert process._generator.gi_frame is None


class TestDefer:
    """``defer`` runs a callback from the calendar at the current instant."""

    def test_fifo_among_urgents_and_ahead_of_same_time_timeouts(self, env):
        order = []
        env.timeout(0).callbacks.append(lambda e: order.append("timeout"))
        for name in "abc":
            env.defer(lambda e: order.append(e.value), name)
        env.run()
        assert order == ["a", "b", "c", "timeout"]

    def test_a_deferral_beats_normals_queued_earlier_for_its_instant(self, env):
        order = []

        def first(_event):
            order.append("first")
            env.defer(lambda e: order.append(("deferred", env.now)))

        env.timeout(5.0).callbacks.append(first)
        env.timeout(5.0).callbacks.append(lambda e: order.append("second"))
        env.run()
        assert order == ["first", ("deferred", 5.0), "second"]

    def test_a_process_starts_with_the_same_hop(self, env):
        order = []

        def body():
            order.append("process")
            yield env.timeout(0)

        env.defer(lambda e: order.append("before"))
        env.process(body())
        env.defer(lambda e: order.append("after"))
        env.run()
        assert order == ["before", "process", "after"]

    def test_close_drops_a_pending_deferral(self, env):
        fired = []
        event = env.defer(fired.append, "x")
        env.close()
        env.run()
        assert fired == [] and event.callbacks == []
