"""Tests for generator-based processes and composite events."""

import pytest

from repro.desim.engine import Environment
from repro.desim.process import Interrupt, Process, ProcessError


class TestProcessBasics:
    def test_non_generator_rejected(self, env):
        with pytest.raises(ProcessError):
            Process(env, lambda: None)  # type: ignore[arg-type]

    def test_process_value_is_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 99

        p = env.process(proc(env))
        env.run()
        assert p.value == 99

    def test_timeout_value_delivered_via_send(self, env):
        got = []

        def proc(env):
            value = yield env.timeout(1, value="hello")
            got.append(value)

        env.process(proc(env))
        env.run()
        assert got == ["hello"]

    def test_sequential_timeouts_accumulate(self, env):
        times = []

        def proc(env):
            for _ in range(3):
                yield env.timeout(2)
                times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [2.0, 4.0, 6.0]

    def test_yielding_non_event_fails_process(self, env):
        def proc(env):
            yield 42  # not an event

        p = env.process(proc(env))
        with pytest.raises(ProcessError):
            env.run()
        assert not p.ok

    def test_process_body_not_run_until_loop_turns(self, env):
        ran = []

        def proc(env):
            ran.append(env.now)
            yield env.timeout(1)

        env.process(proc(env))
        assert ran == []  # lazy start
        env.run()
        assert ran == [0.0]

    def test_waiting_on_another_process(self, env):
        def inner(env):
            yield env.timeout(3)
            return "inner-done"

        def outer(env):
            result = yield env.process(inner(env))
            return (env.now, result)

        p = env.process(outer(env))
        env.run()
        assert p.value == (3.0, "inner-done")

    def test_exception_in_process_propagates(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("inside")

        env.process(proc(env))
        with pytest.raises(ValueError, match="inside"):
            env.run()

    def test_is_alive_tracks_lifetime(self, env):
        def proc(env):
            yield env.timeout(5)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as exc:
                causes.append((env.now, exc.cause))

        def killer(env, victim):
            yield env.timeout(4)
            victim.interrupt("shutdown")

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        env.run()
        assert causes == [(4.0, "shutdown")]

    def test_interrupted_process_can_continue(self, env):
        log = []

        def worker(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                log.append("interrupted")
            yield env.timeout(1)
            log.append(env.now)

        def killer(env, victim):
            yield env.timeout(2)
            victim.interrupt()

        victim = env.process(worker(env))
        env.process(killer(env, victim))
        env.run()
        assert log == ["interrupted", 3.0]

    def test_interrupting_dead_process_raises(self, env):
        def quick(env):
            yield env.timeout(1)

        def late_killer(env, victim):
            yield env.timeout(5)
            victim.interrupt()

        victim = env.process(quick(env))
        env.process(late_killer(env, victim))
        with pytest.raises(ProcessError):
            env.run()

    def test_self_interrupt_rejected(self, env):
        def proc(env):
            env.active_process.interrupt()
            yield env.timeout(1)

        env.process(proc(env))
        with pytest.raises(ProcessError):
            env.run()


class TestFinishedProcessCalendar:
    """A process that returns with no waiter is processed at once; one
    with a waiter, or one that fails, still goes through the calendar."""

    @staticmethod
    def _drain(env):
        """Step until the calendar is empty; the number of events popped."""
        popped = 0
        while env.peek() < float("inf"):
            env.step()
            popped += 1
        return popped

    def test_unwaited_return_leaves_no_calendar_entry(self, env):
        def proc(env):
            yield env.timeout(2)
            return "done"

        p = env.process(proc(env))
        # The init event and the timeout; no third pop for the return.
        assert self._drain(env) == 2
        assert p.processed
        assert p.value == "done"
        assert env.now == 2.0

    def test_run_until_a_processed_process_returns_its_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 99

        p = env.process(proc(env))
        env.run()
        assert p.processed
        assert env.run(until=p) == 99
        assert env.now == 1.0

    def test_later_waiter_continues_at_once(self, env):
        got = []

        def quick(env):
            yield env.timeout(1)
            return "q"

        def late(env, p):
            yield env.timeout(4)
            got.append((env.now, (yield p)))

        p = env.process(quick(env))
        env.process(late(env, p))
        env.run()
        assert got == [(4.0, "q")]

    def test_early_waiter_resumes_through_the_calendar(self, env):
        log = []

        def child(env):
            yield env.timeout(1)
            log.append("child")
            return "c"

        def parent(env, c):
            value = yield c
            log.append(("parent", env.now, value))

        def other(env):
            yield env.timeout(1)
            log.append("other")

        c = env.process(child(env))
        env.process(parent(env, c))
        env.process(other(env))
        env.run()
        # The child's return is queued behind the same-time timeout that
        # was scheduled before it, so the parent resumes after "other".
        assert log == ["child", "other", ("parent", 1.0, "c")]

    def test_unwaited_failure_still_stops_the_loop(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("boom")

        p = env.process(proc(env))
        env.step()  # init
        env.step()  # timeout: the body raises
        assert p.triggered and not p.processed
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert not p.ok
        assert env.now == 1.0

    def test_defused_failure_does_not_stop_the_loop(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("boom")

        def after(env):
            yield env.timeout(2)

        p = env.process(proc(env))
        p.defuse()
        env.process(after(env))
        env.run()
        assert not p.ok
        assert env.now == 2.0

    def test_waiter_catches_a_failure(self, env):
        caught = []

        def proc(env):
            yield env.timeout(1)
            raise ValueError("boom")

        def guard(env, p):
            try:
                yield p
            except ValueError as exc:
                caught.append((env.now, str(exc)))

        env.process(guard(env, env.process(proc(env))))
        env.run()
        assert caught == [(1.0, "boom")]

    def test_now_advances_as_before(self):
        env = Environment(initial_time=3.0)
        seen = []

        def inner(env):
            yield env.timeout(0.5)
            seen.append(env.now)

        def outer(env):
            seen.append(env.now)
            yield env.timeout(1.0)
            seen.append(env.now)
            yield env.process(inner(env))
            seen.append(env.now)
            yield env.timeout(0.0)
            seen.append(env.now)

        env.process(outer(env))
        env.run(until=10.0)
        assert seen == [3.0, 4.0, 4.5, 4.5, 4.5]
        assert env.now == 10.0
        assert isinstance(env.now, float)
