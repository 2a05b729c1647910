"""Calendar-queue backend: byte-identical schedules vs the binary heap.

The determinism contract: ``Simulator(queue="calendar")`` must produce
exactly the schedule ``Simulator(queue="heap")`` produces — same times,
same order, same values — no matter how the calendar resizes its buckets
internally. Tests here run the same workloads through both backends and
compare logs, including a full control-plane storm under the standard
randomized fault schedule, plus unit tests on the queue itself.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import CalendarQueue, Event, Simulator
from repro.sim.events import CANCELLED
from repro.storage import FairShareLink

from tests.sim.test_fastpath import _mixed_workload


# -- differential: mixed process workloads ---------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
def test_calendar_schedule_identical_to_heap(seed):
    heap_log = _mixed_workload(Simulator(queue="heap"), seed)
    calendar_log = _mixed_workload(Simulator(queue="calendar"), seed)
    assert calendar_log == heap_log
    assert len(calendar_log) > 0


@pytest.mark.parametrize("seed", [3, 11])
def test_calendar_identical_without_fast_resume(seed):
    heap_log = _mixed_workload(Simulator(queue="heap", fast_resume=False), seed)
    calendar_log = _mixed_workload(Simulator(queue="calendar", fast_resume=False), seed)
    assert calendar_log == heap_log


def _storm_workload(sim: Simulator, seed: int) -> list:
    """Timers over wildly mixed horizons plus cancel churn.

    Exercises the calendar's resize (thousands of standing timers), the
    sparse-year fallback (horizon jumps), and lazy cancellation pruning.
    """
    rng = random.Random(seed)
    log: list = []
    armed: list[Event] = []

    def fire(event):
        log.append((sim.now, "fire", event._value))

    def driver():
        for step in range(400):
            horizon = rng.choice((0.01, 1.0, 60.0, 3600.0, 86_400.0))
            for index in range(rng.randint(1, 6)):
                event = Event(sim)
                event.callbacks.append(fire)
                event.succeed(
                    value=(step, index), delay=round(rng.uniform(0.0, horizon), 4)
                )
                armed.append(event)
            if armed and rng.random() < 0.4:
                victim = armed.pop(rng.randrange(len(armed)))
                if victim._state != "processed":
                    victim.cancel()
                    log.append((sim.now, "cancel"))
            yield sim.timeout(round(rng.uniform(0.0, 5.0), 4))
        log.append((sim.now, "driver-done"))

    sim.spawn(driver())
    sim.run()
    return log


@pytest.mark.parametrize("seed", [0, 5, 13, 99])
def test_cancel_storm_schedule_identical(seed):
    heap_log = _storm_workload(Simulator(queue="heap"), seed)
    calendar_log = _storm_workload(Simulator(queue="calendar"), seed)
    assert calendar_log == heap_log
    assert any(entry[1] == "cancel" for entry in calendar_log)


@pytest.mark.parametrize("queue", ["heap", "calendar"])
def test_fair_share_churn_bounded_depth(queue):
    sim = Simulator(queue=queue)
    link = FairShareLink(sim, capacity_bps=1e6)
    done = []

    def submit(index):
        yield sim.timeout(index * 0.01)
        yield link.transfer(5e4)
        done.append(sim.queue_depth)

    for index in range(200):
        sim.spawn(submit(index))
    sim.run()
    assert len(done) == 200
    assert max(done) < 700  # cancel hygiene holds on both backends


# -- differential: hypothesis property -------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_property_schedules_identical(seed):
    heap_log = _storm_workload(Simulator(queue="heap"), seed)
    calendar_log = _storm_workload(Simulator(queue="calendar"), seed)
    assert calendar_log == heap_log


# -- differential: control-plane storm under the standard fault schedule ----


def _fault_storm(queue: str, seed: int) -> tuple:
    from repro.core.experiments import StormRig
    from repro.faults import FaultInjector, FaultTargets, random_fault_schedule

    duration = 240.0
    rig = StormRig(seed=seed, hosts=4, datastores=2, queue=queue)
    schedule = random_fault_schedule(random.Random(seed), duration)
    injector = FaultInjector(
        rig.sim,
        FaultTargets.for_server(rig.server),
        schedule,
        rng=random.Random(seed + 1),
    ).start()
    summary = rig.closed_loop_storm(total=24, concurrency=6, linked=True)
    rig.sim.run(until=rig.sim.spawn(injector.drain(), name="drain"))
    rig.sim.run()
    tasks = rig.server.tasks
    tasks.assert_accounted()
    ledger = tuple(
        (task.task_id, task.state.value, task.started_at, task.finished_at)
        for task in tasks.tasks
    )
    return rig.sim.now, summary, ledger


@pytest.mark.parametrize("seed", [0, 7])
def test_fault_schedule_storm_identical(seed):
    assert _fault_storm("calendar", seed) == _fault_storm("heap", seed)


# -- backend selection ------------------------------------------------------


def test_heap_is_the_default(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_QUEUE", raising=False)
    sim = Simulator()
    assert sim.queue_backend == "heap"
    assert sim._calendar is None


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_QUEUE", "calendar")
    assert Simulator().queue_backend == "calendar"
    # An explicit argument beats the environment.
    assert Simulator(queue="heap").queue_backend == "heap"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        Simulator(queue="skiplist")


def test_queue_depth_and_deprecated_alias():
    sim = Simulator(queue="calendar")
    sim.timeout(1.0)
    sim.timeout(2.0)
    assert sim.queue_depth == 2
    assert not hasattr(sim, "heap_size")


# -- CalendarQueue unit tests ----------------------------------------------


class _Entry:
    """Stand-in event carrying only the state the queue looks at."""

    __slots__ = ("_state",)

    def __init__(self):
        self._state = "triggered"


def _drain(queue):
    out = []
    while True:
        head = queue.peek()
        if head is None:
            break
        assert queue.pop() is head
        out.append(head[:3])
    return out


def test_pop_order_is_total_order_across_resizes():
    rng = random.Random(1)
    queue = CalendarQueue()
    entries = []
    for sequence in range(3_000):
        time = round(rng.uniform(0.0, 50_000.0), 3)
        entry = (time, rng.randint(0, 1), sequence, _Entry())
        entries.append(entry)
        queue.push(entry)
    assert len(queue) == 3_000
    queue.peek()  # growth is deferred to serve time
    assert queue.buckets > 16  # growth happened
    assert _drain(queue) == sorted(entry[:3] for entry in entries)
    assert len(queue) == 0


def test_interleaved_push_pop_matches_sorted_order():
    rng = random.Random(2)
    queue = CalendarQueue()
    reference = []
    sequence = 0
    clock = 0.0
    for _ in range(2_000):
        if reference and rng.random() < 0.5:
            head = queue.pop()
            reference.sort()
            assert head[:3] == reference.pop(0)
            clock = head[0]
        else:
            sequence += 1
            entry = (clock + round(rng.uniform(0.0, 100.0), 3), 1, sequence, _Entry())
            queue.push(entry)
            reference.append(entry[:3])
    assert _drain(queue) == sorted(reference)


def test_cancelled_entries_are_compacted():
    queue = CalendarQueue()
    dead = []
    for sequence in range(500):
        entry = (float(sequence), 1, sequence, _Entry())
        queue.push(entry)
        if sequence % 2:
            dead.append(entry)
    for entry in dead:
        entry[3]._state = CANCELLED
        queue.note_cancelled()
    # The cancel-counter rule triggered a compacting rebuild.
    assert queue.dead == 0
    assert len(queue) == 250
    assert [key[0] for key in _drain(queue)] == [float(n) for n in range(0, 500, 2)]


def test_sparse_far_future_head_found():
    queue = CalendarQueue()
    far = (1e9, 1, 1, _Entry())
    queue.push(far)
    assert queue.peek() is far
    near = (5.0, 1, 2, _Entry())
    queue.push(near)  # lands behind the jumped day pointer
    assert queue.peek() is near
    assert queue.pop() is near
    assert queue.pop() is far
    assert queue.peek() is None


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        CalendarQueue().pop()


def test_identical_times_preserve_sequence_order():
    queue = CalendarQueue()
    entries = [(42.0, 1, sequence, _Entry()) for sequence in range(200)]
    shuffled = entries[:]
    random.Random(3).shuffle(shuffled)
    for entry in shuffled:
        queue.push(entry)
    assert _drain(queue) == [entry[:3] for entry in entries]
