"""Unit tests for the database model."""

import pytest

from repro.controlplane import DEFAULT_COSTS
from repro.controlplane.database import DatabaseModel
from repro.sim import RandomStreams, Simulator


def run_process(sim, generator):
    box = {}

    def wrapper():
        box["value"] = yield from generator
        return box["value"]

    process = sim.spawn(wrapper())
    sim.run(until=process)
    return box["value"]


def make_db(sim, connections=4, batching=False, seed=1):
    return DatabaseModel(
        sim,
        DEFAULT_COSTS,
        connections=connections,
        rng=RandomStreams(seed).stream("db"),
        batching=batching,
    )


def test_write_takes_positive_time():
    sim = Simulator()
    database = make_db(sim)
    elapsed = run_process(sim, database.write(rows=1))
    assert elapsed > 0
    assert sim.now == elapsed


def test_write_cost_scales_with_rows():
    sim = Simulator()
    database = make_db(sim)
    few = run_process(sim, database.write(rows=1))
    many = run_process(sim, database.write(rows=50))
    assert many > few * 10


def test_batching_reduces_write_cost():
    def total_time(batching):
        sim = Simulator()
        database = make_db(sim, batching=batching, seed=7)
        for _ in range(20):
            run_process(sim, database.write(rows=4))
        return sim.now

    assert total_time(True) < total_time(False) / 2


def test_reads_cheaper_than_writes():
    sim = Simulator()
    database = make_db(sim, seed=3)
    reads = sum(run_process(sim, database.read()) for _ in range(30))
    writes = sum(run_process(sim, database.write()) for _ in range(30))
    assert reads < writes


def test_connection_pool_limits_concurrency():
    sim = Simulator()
    database = make_db(sim, connections=1)
    finish = []

    def writer():
        yield from database.write(rows=10)
        finish.append(sim.now)

    sim.spawn(writer())
    sim.spawn(writer())
    sim.run()
    # Serialized on the single connection: second ends strictly later.
    assert finish[1] > finish[0]


def test_rows_must_be_positive():
    sim = Simulator()
    database = make_db(sim)
    with pytest.raises(ValueError):
        run_process(sim, database.write(rows=0))
    with pytest.raises(ValueError):
        run_process(sim, database.read(rows=0))


def test_slowdown_injection():
    def one_write(slow):
        sim = Simulator()
        database = make_db(sim, seed=5)
        if slow:
            database.set_slowdown(10.0)
        return run_process(sim, database.write())

    assert one_write(True) == pytest.approx(one_write(False) * 10.0)


def test_slowdown_must_be_at_least_one():
    sim = Simulator()
    database = make_db(sim)
    with pytest.raises(ValueError):
        database.set_slowdown(0.5)


def test_utilization_bounded_and_positive_under_load():
    sim = Simulator()
    database = make_db(sim, connections=2)

    def writer():
        for _ in range(50):
            yield from database.write()

    sim.spawn(writer())
    sim.spawn(writer())
    sim.run()
    utilization = database.utilization()
    assert 0.0 < utilization <= 1.0


def test_metrics_counters_track_rows():
    sim = Simulator()
    database = make_db(sim)
    run_process(sim, database.write(rows=3))
    run_process(sim, database.read(rows=2))
    assert database.metrics.counter("writes").value == 3
    assert database.metrics.counter("reads").value == 2


def test_registry_keeps_first_use_order():
    sim = Simulator()
    database = make_db(sim)
    run_process(sim, database.read(rows=1))
    run_process(sim, database.write(rows=2))
    run_process(sim, database.read(rows=1))
    assert list(database.metrics.all()) == [
        "db.reads", "db.reads_latency", "db.writes", "db.writes_latency",
    ]
    assert database.metrics.counter("reads").value == 2
    assert database.metrics.latency("writes_latency").count == 1


def test_write_only_registry_has_no_read_metrics():
    sim = Simulator()
    database = make_db(sim)
    run_process(sim, database.write(rows=1))
    assert list(database.metrics.all()) == ["db.writes", "db.writes_latency"]
