"""The typed simulation event bus: dispatch semantics and stock observers."""

import pytest

from repro.core.bus import (
    BusEvent,
    EventBus,
    EventCounter,
    EventRecorder,
    JobCompleted,
    TaskFinished,
    TaskStarted,
    WorkerHired,
)


def _started(time=1.0, **kw):
    defaults = dict(
        job="job-1",
        stage=0,
        threads=4,
        worker=7,
        tier="private",
        wait=0.5,
        attempt=0,
        speculative=False,
        straggled=False,
    )
    defaults.update(kw)
    return TaskStarted(time, **defaults)


class TestEventBus:
    def test_publish_reaches_subscriber(self):
        bus, seen = EventBus(), []
        bus.subscribe(TaskStarted, seen.append)
        event = _started()
        bus.publish(event)
        assert seen == [event]

    def test_publish_without_subscribers_is_noop(self):
        EventBus().publish(_started())  # must not raise

    def test_exact_type_dispatch_no_subclass_fanout(self):
        bus, seen = EventBus(), []
        bus.subscribe(BusEvent, seen.append)
        bus.publish(_started())
        assert seen == []  # TaskStarted is not delivered to BusEvent subs

    def test_delivery_in_subscription_order(self):
        bus, order = EventBus(), []
        bus.subscribe(TaskStarted, lambda e: order.append("first"))
        bus.subscribe(TaskStarted, lambda e: order.append("second"))
        bus.publish(_started())
        assert order == ["first", "second"]

    def test_contains_is_the_publisher_guard(self):
        bus = EventBus()
        assert TaskStarted not in bus
        bus.subscribe(TaskStarted, lambda e: None)
        assert TaskStarted in bus
        assert WorkerHired not in bus

    def test_active_and_subscriptions(self):
        bus = EventBus()
        assert not bus.active
        bus.subscribe(WorkerHired, lambda e: None)
        bus.subscribe(WorkerHired, lambda e: None)
        assert bus.active

    def test_events_are_frozen(self):
        event = _started()
        with pytest.raises(AttributeError):
            event.stage = 3


class TestStockObservers:
    def test_counter_counts_by_type(self):
        bus = EventBus()
        counter = EventCounter().attach(bus)
        bus.publish(_started())
        bus.publish(_started(time=2.0))
        bus.publish(JobCompleted(3.0, "job-1", 2.0, 100.0, 50.0))
        assert counter.counts == {"TaskStarted": 2, "JobCompleted": 1}

    def test_counter_restricted_to_listed_types(self):
        bus = EventBus()
        counter = EventCounter().attach(bus, event_types=[JobCompleted])
        bus.publish(_started())
        bus.publish(JobCompleted(3.0, "job-1", 2.0, 100.0, 50.0))
        assert counter.counts == {"JobCompleted": 1}

    def test_recorder_keeps_order_and_filters(self):
        bus = EventBus()
        recorder = EventRecorder().attach(bus)
        first = _started()
        done = TaskFinished(2.0, "job-1", 0, "completed", 7, "private")
        bus.publish(first)
        bus.publish(done)
        assert list(recorder) == [first, done]
        assert recorder.of_type(TaskFinished) == [done]
        assert len(recorder) == 2
