"""Edge-case coverage across the kernel and primitives."""

import pytest

from repro.sim import Event, EventCancelled, Simulator, Store
from repro.sim.resources import TokenBucket


def test_event_value_raises_stored_failure():
    sim = Simulator()
    event = sim.event()
    event.fail(ValueError("stored"))
    with pytest.raises(ValueError, match="stored"):
        _ = event.value


def test_event_repr_shows_state_and_name():
    sim = Simulator()
    event = sim.event("gate")
    assert "gate" in repr(event)
    assert "pending" in repr(event)


def test_cancel_processed_event_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    sim.run()
    with pytest.raises(RuntimeError, match="already processed"):
        event.cancel()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError, match="generator"):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_spawned_process_waits_on_already_processed_event():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()
    assert done.processed

    def late_waiter():
        value = yield done
        return value

    process = sim.spawn(late_waiter())
    assert sim.run(until=process) == "early"


def test_waiting_on_already_failed_event_raises():
    sim = Simulator()
    failed = sim.event()
    failed.fail(IOError("gone"))
    sim.run()

    def late_waiter():
        with pytest.raises(IOError):
            yield failed
        return "handled"

    process = sim.spawn(late_waiter())
    assert sim.run(until=process) == "handled"


def test_store_getter_cancel_is_skipped():
    sim = Simulator()
    store = Store(sim)
    getter = store.get()
    getter.cancel()
    received = []

    def consumer():
        item = yield store.get()
        received.append(item)

    sim.spawn(consumer())
    store.put("x")
    sim.run()
    # The cancelled getter was skipped; the live one got the item.
    assert received == ["x"]


def test_token_bucket_caps_at_burst():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=100.0, burst=3.0)
    times = []

    def taker():
        # Long idle: tokens must cap at burst (3), not accrue unboundedly.
        yield sim.timeout(100.0)
        for _ in range(5):
            yield from bucket.take(1.0)
            times.append(sim.now)

    sim.spawn(taker())
    sim.run()
    immediate = sum(1 for time in times if time == pytest.approx(100.0))
    assert immediate == 3


def test_gauge_series_records_steps():
    from repro.sim import Gauge

    sim = Simulator()
    gauge = Gauge(sim, "g")
    gauge.set(1.0)
    gauge.set(3.0)
    series = gauge.series()
    assert series[0] == (0.0, 0.0)
    assert series[-1] == (0.0, 3.0)


def test_run_until_event_value_propagates_failure():
    sim = Simulator()

    def boom():
        yield sim.timeout(1.0)
        raise KeyError("inside")

    process = sim.spawn(boom())
    with pytest.raises(KeyError):
        sim.run(until=process)


def test_interrupt_cause_defaults_to_none():
    from repro.sim import Interrupt

    caught = []
    sim = Simulator()

    def victim():
        try:
            yield sim.timeout(50.0)
        except Interrupt as interrupt:
            caught.append(interrupt.cause)

    process = sim.spawn(victim())

    def attacker():
        yield sim.timeout(1.0)
        process.interrupt()

    sim.spawn(attacker())
    sim.run()
    assert caught == [None]


@pytest.mark.parametrize("method", ["succeed", "fail"])
def test_negative_delay_leaves_the_event_pending(method):
    """A rejected delay must not mark the event triggered: a corrected
    retry schedules it and wakes its waiters."""
    sim = Simulator()
    event = sim.event("gate")
    outcome = "value" if method == "succeed" else KeyError("boom")
    seen = []

    def waiter():
        try:
            value = yield event
        except KeyError as error:
            value = error
        seen.append((sim.now, value))

    sim.spawn(waiter(), name="waiter")
    with pytest.raises(ValueError, match="negative delay"):
        getattr(event, method)(outcome, delay=-1.0)
    assert not event.triggered
    assert event.exception is None and event.value is None
    getattr(event, method)(outcome, delay=2.0)
    sim.run()
    assert seen == [(2.0, outcome)]


def test_lock_and_store_events_keep_their_names():
    from repro.controlplane.locks import RWLock

    sim = Simulator()
    lock = RWLock(sim, name="vm-7")
    store = Store(sim, name="jobs")
    held = lock.acquire("write")
    queued = lock.acquire("read")
    getter = store.get()
    assert repr(held) == "<Event 'write:vm-7' triggered>"
    assert repr(queued) == "<Event 'read:vm-7' pending>"
    assert repr(getter) == "<Event 'get:jobs' pending>"
    assert (held.name, queued.name, getter.name) == ("write:vm-7", "read:vm-7", "get:jobs")
    assert str(EventCancelled(queued.name)) == "read:vm-7"
