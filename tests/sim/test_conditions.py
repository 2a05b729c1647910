"""AllOf/AnyOf semantics and the O(n) cost of a condition over n events."""

import pytest

from repro.sim import AllOf, AnyOf, Simulator
from repro.sim.events import Condition, Event


def fired(sim, condition):
    """Run to quiescence; return (time the condition fired, its value)."""
    box = {}

    def waiter():
        box["value"] = yield condition
        box["at"] = sim.now

    sim.spawn(waiter())
    sim.run()
    return box.get("at"), box.get("value")


class TestEmpty:
    @pytest.mark.parametrize("kind", [AllOf, AnyOf])
    def test_empty_condition_succeeds_at_once_with_empty_dict(self, kind):
        sim = Simulator()
        condition = kind(sim, [])
        assert condition.triggered
        assert fired(sim, condition) == (0.0, {})


class TestDuplicates:
    def test_allof_duplicate_fires_once_the_shared_event_fires(self):
        sim = Simulator()
        shared = sim.timeout(2.0, value="x")
        assert fired(sim, AllOf(sim, [shared, shared])) == (2.0, {shared: "x"})

    def test_allof_duplicate_still_waits_for_the_others(self):
        sim = Simulator()
        shared = sim.timeout(1.0, value="a")
        other = sim.timeout(3.0, value="b")
        at, value = fired(sim, AllOf(sim, [shared, other, shared]))
        assert at == 3.0
        assert value == {shared: "a", other: "b"}

    def test_anyof_duplicate_fires_on_first_success(self):
        sim = Simulator()
        shared = sim.timeout(1.0, value="a")
        slow = sim.timeout(5.0, value="b")
        assert fired(sim, AnyOf(sim, [shared, slow, shared])) == (1.0, {shared: "a"})


class TestAlreadyProcessed:
    def _processed(self, sim, value):
        event = sim.event()
        event.succeed(value)
        return event

    def test_allof_all_processed_fires_immediately(self):
        sim = Simulator()
        first = self._processed(sim, 1)
        second = self._processed(sim, 2)
        sim.run()
        condition = AllOf(sim, [first, second])
        assert condition.triggered
        assert fired(sim, condition) == (0.0, {first: 1, second: 2})

    def test_allof_mixed_waits_for_the_pending_one(self):
        sim = Simulator()
        done = self._processed(sim, "done")
        sim.run()
        later = sim.timeout(4.0, value="later")
        condition = AllOf(sim, [later, done])
        assert not condition.triggered
        assert fired(sim, condition) == (4.0, {later: "later", done: "done"})

    def test_anyof_with_a_processed_success_fires_immediately(self):
        sim = Simulator()
        done = self._processed(sim, "done")
        sim.run()
        later = sim.timeout(4.0)
        condition = AnyOf(sim, [later, done])
        assert condition.triggered
        assert fired(sim, condition) == (0.0, {done: "done"})

    def test_processed_failure_fails_at_construction(self):
        sim = Simulator()
        bad = sim.event()
        bad.fail(KeyError("gone"))
        sim.run()
        condition = AllOf(sim, [sim.timeout(1.0), bad])
        assert condition.triggered and not condition.ok
        assert isinstance(condition.exception, KeyError)


class TestFailFast:
    @pytest.mark.parametrize("kind", [AllOf, AnyOf])
    def test_first_failure_fails_the_condition_at_that_instant(self, kind):
        sim = Simulator()
        slow = sim.timeout(5.0)
        bad = sim.event()
        bad.fail(ValueError("boom"), delay=1.0)
        caught = {}

        def waiter():
            try:
                yield kind(sim, [slow, bad])
            except ValueError as error:
                caught["error"] = error
                caught["at"] = sim.now

        sim.spawn(waiter())
        sim.run()
        assert caught["at"] == 1.0
        assert str(caught["error"]) == "boom"

    def test_failure_after_success_is_ignored(self):
        sim = Simulator()
        fast = sim.timeout(1.0, value="ok")
        bad = sim.event()
        bad.fail(ValueError("late"), delay=2.0)
        condition = AnyOf(sim, [fast, bad])
        assert fired(sim, condition) == (1.0, {fast: "ok"})
        assert condition.ok


class TestValueDict:
    def test_allof_value_maps_every_event_to_its_value(self):
        sim = Simulator()
        events = [sim.timeout(float(i), value=i * 10) for i in range(1, 5)]
        at, value = fired(sim, AllOf(sim, events))
        assert at == 4.0
        assert value == {event: i * 10 for i, event in enumerate(events, start=1)}

    def test_anyof_value_holds_only_what_had_fired(self):
        sim = Simulator()
        first = sim.timeout(1.0, value="first")
        tied = sim.timeout(1.0, value="tied")
        last = sim.timeout(2.0, value="last")
        at, value = fired(sim, AnyOf(sim, [last, first, tied]))
        assert at == 1.0
        # The tie fires later in the same instant, after the condition.
        assert value == {first: "first"}


def test_allof_over_many_timeouts_does_linear_constituent_work(monkeypatch):
    """Each firing constituent costs O(1): no rescan of the whole list.

    Counts condition checks and every ``processed``/``ok`` read (the
    rescan a quadratic condition would do), rather than timing anything.
    """
    n = 5000
    reads = {"processed": 0, "ok": 0, "checks": 0}
    processed = Event.processed
    ok = Event.ok
    check = Condition._check

    def counting(name, prop):
        def getter(event):
            reads[name] += 1
            return prop.fget(event)

        return property(getter)

    def counting_check(self, event):
        reads["checks"] += 1
        return check(self, event)

    monkeypatch.setattr(Event, "processed", counting("processed", processed))
    monkeypatch.setattr(Event, "ok", counting("ok", ok))
    monkeypatch.setattr(Condition, "_check", counting_check)

    sim = Simulator()
    events = [sim.timeout(float(i % 97), value=i) for i in range(n)]
    at, value = fired(sim, AllOf(sim, events))
    assert at == 96.0
    assert len(value) == n
    assert reads["checks"] == n
    # Collecting the value dict reads each event a bounded number of
    # times; a rescan per firing would read it O(n) times.
    assert reads["processed"] + reads["ok"] <= 4 * n
