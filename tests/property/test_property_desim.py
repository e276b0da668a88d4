"""Property-based tests on the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.desim.engine import Environment
from repro.desim.monitor import TimeWeightedMonitor


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []
    for delay in delays:
        env.timeout(delay).callbacks.append(lambda e: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20
    )
)
@settings(max_examples=50, deadline=None)
def test_sequential_process_time_is_sum_of_delays(delays):
    env = Environment()

    def proc(env):
        for d in delays:
            yield env.timeout(d)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert abs(p.value - sum(delays)) < 1e-6 * max(len(delays), 1)


@given(
    changes=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=10.0),  # dt
            st.floats(min_value=0.0, max_value=100.0),  # level
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_time_weighted_average_bounded_by_extremes(changes):
    monitor = TimeWeightedMonitor(initial=changes[0][1])
    t = 0.0
    levels = [changes[0][1]]
    for dt, level in changes:
        t += dt
        monitor.set_level(t, level)
        levels.append(level)
    avg = monitor.time_average()
    assert min(levels) - 1e-9 <= avg <= max(levels) + 1e-9
