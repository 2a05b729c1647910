"""Unit tests for metrics primitives."""

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, Gauge, Histogram, LatencyRecorder, MetricsRegistry, Simulator, TimeSeries


def test_counter_accumulates():
    counter = Counter("ops")
    counter.add()
    counter.add(4)
    assert counter.value == 5


def test_counter_rejects_decrease():
    counter = Counter("ops")
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.add(-1)


def test_counter_rejects_non_finite():
    counter = Counter("ops")
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="must be finite"):
            counter.add(bad)
    assert counter.value == 0.0


def test_gauge_rejects_non_finite():
    sim = Simulator()
    gauge = Gauge(sim, "depth")
    gauge.set(3.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="must be finite"):
            gauge.set(bad)
        with pytest.raises(ValueError, match="must be finite"):
            gauge.add(bad)
    assert gauge.value == 3.0
    assert gauge.series() == [(0.0, 0.0), (0.0, 3.0)]


def test_latency_rejects_non_finite():
    recorder = LatencyRecorder("lat")
    recorder.record(1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="must be finite"):
            recorder.record(bad)
    # A rejected sample must not corrupt the sorted invariant or the sum.
    assert recorder.count == 1
    assert recorder.mean == 1.0


def test_gauge_time_average():
    sim = Simulator()
    gauge = Gauge(sim, "depth")

    def proc():
        gauge.set(2.0)          # level 2 on [0, 4)
        yield sim.timeout(4.0)
        gauge.set(6.0)          # level 6 on [4, 8)
        yield sim.timeout(4.0)
        gauge.set(0.0)

    sim.spawn(proc())
    sim.run()
    assert gauge.time_average() == pytest.approx((2 * 4 + 6 * 4) / 8)
    assert gauge.maximum == 6.0


def test_gauge_time_average_since_window():
    sim = Simulator()
    gauge = Gauge(sim, "depth")

    def proc():
        gauge.set(10.0)
        yield sim.timeout(5.0)
        gauge.set(0.0)
        yield sim.timeout(5.0)

    sim.spawn(proc())
    sim.run()
    assert gauge.time_average(since=5.0) == pytest.approx(0.0)
    assert gauge.time_average(since=0.0) == pytest.approx(5.0)


def test_gauge_add_is_relative():
    sim = Simulator()
    gauge = Gauge(sim, "depth")
    gauge.add(3)
    gauge.add(-1)
    assert gauge.value == 2


def test_latency_percentiles():
    recorder = LatencyRecorder("lat")
    for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
        recorder.record(value)
    assert recorder.percentile(0.0) == 1.0
    assert recorder.percentile(0.5) == 3.0
    assert recorder.percentile(1.0) == 5.0
    assert recorder.percentile(0.25) == 2.0
    assert recorder.mean == 3.0
    assert recorder.count == 5


def test_latency_empty_percentile_is_zero():
    recorder = LatencyRecorder("lat")
    assert recorder.percentile(0.99) == 0.0
    assert recorder.mean == 0.0


def test_latency_rejects_bad_inputs():
    recorder = LatencyRecorder("lat")
    with pytest.raises(ValueError):
        recorder.record(-1.0)
    recorder.record(1.0)
    with pytest.raises(ValueError):
        recorder.percentile(1.5)


def test_latency_cdf_is_monotone_and_complete():
    recorder = LatencyRecorder("lat")
    for value in range(100):
        recorder.record(float(value))
    cdf = recorder.cdf(points=10)
    fractions = [fraction for _, fraction in cdf]
    assert fractions == sorted(fractions)
    assert cdf[-1][1] == 1.0
    values = [value for value, _ in cdf]
    assert values == sorted(values)


def test_latency_cdf_rejects_non_positive_points():
    recorder = LatencyRecorder("lat")
    for value in range(10):
        recorder.record(float(value))
    for points in (0, -1):
        with pytest.raises(ValueError, match="points"):
            recorder.cdf(points=points)
    assert recorder.cdf(points=1)[-1] == (9.0, 1.0)


_op = st.one_of(
    st.tuples(
        st.just("record"),
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, 2.5]),
            st.floats(min_value=0.0, max_value=1e6),
        ),
    ),
    st.tuples(st.just("percentile"), st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("cdf"), st.integers(min_value=1, max_value=20)),
    st.tuples(st.just("samples"), st.none()),
)


def _bits(values):
    # float.hex tells -0.0 from 0.0, which == does not.
    return [value.hex() for value in values]


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_op, max_size=60))
def test_latency_recorder_matches_insort_reference(ops):
    recorder = LatencyRecorder("lat")
    reference = []  # insort on every record
    for op, arg in ops:
        if op == "record":
            recorder.record(arg)
            bisect.insort(reference, arg)
        elif op == "samples":
            assert _bits(recorder.samples()) == _bits(reference)
        elif op == "cdf":
            n = len(reference)
            expected = [
                (reference[index], (index + 1) / n)
                for index in range(0, n, max(1, n // arg))
            ]
            if expected and expected[-1][1] < 1.0:
                expected.append((reference[-1], 1.0))
            got = recorder.cdf(points=arg)
            assert [(v.hex(), f) for v, f in got] == [(v.hex(), f) for v, f in expected]
        else:
            expected = 0.0
            if reference:
                position = arg * (len(reference) - 1)
                lower, upper = math.floor(position), math.ceil(position)
                low, high = reference[lower], reference[upper]
                expected = low
                if lower != upper and low != high:
                    weight = position - lower
                    expected = min(high, max(low, low * (1 - weight) + high * weight))
            assert recorder.percentile(arg).hex() == expected.hex()
        assert recorder.count == len(reference)
    assert _bits(recorder.samples()) == _bits(reference)


def test_latency_recorder_keeps_signed_zero_ties_in_arrival_order():
    recorder = LatencyRecorder("lat")
    recorder.record(0.0)
    recorder.record(1.0)
    assert recorder.percentile(0.0) == 0.0
    recorder.record(-0.0)
    recorder.record(0.0)
    recorder.record(-0.0)
    assert _bits(recorder.samples()) == _bits([0.0, -0.0, 0.0, -0.0, 1.0])
    assert math.copysign(1.0, recorder.percentile(0.0)) == 1.0


def test_latency_recorder_still_rejects_nan_and_negative_after_reads():
    recorder = LatencyRecorder("lat")
    recorder.record(1.0)
    recorder.samples()
    for bad in (math.nan, -1.0, -math.inf, math.inf):
        with pytest.raises(ValueError):
            recorder.record(bad)
    assert recorder.samples() == [1.0]
    assert recorder.count == 1


def test_histogram_binning():
    histogram = Histogram("depth", edges=[0, 1, 2, 4])
    for value in [0, 0.5, 1, 3, 5, -1]:
        histogram.record(value)
    assert histogram.counts == [2, 1, 1]
    assert histogram.overflow == 1
    assert histogram.underflow == 1
    assert histogram.total == 6


def test_histogram_validates_edges():
    with pytest.raises(ValueError):
        Histogram("bad", edges=[2, 1])
    with pytest.raises(ValueError):
        Histogram("bad", edges=[1])


def test_timeseries_bins_and_gap_fill():
    series = TimeSeries("arrivals", bin_width=10.0)
    series.record(1.0)
    series.record(5.0)
    series.record(35.0, amount=2.0)
    bins = series.bins()
    assert bins == [(0.0, 2.0), (10.0, 0.0), (20.0, 0.0), (30.0, 2.0)]


def test_timeseries_empty():
    series = TimeSeries("arrivals", bin_width=10.0)
    assert series.bins() == []


def test_timeseries_validates_width():
    with pytest.raises(ValueError):
        TimeSeries("bad", bin_width=0.0)


def test_registry_reuses_metrics_by_name():
    sim = Simulator()
    registry = MetricsRegistry(sim, prefix="host1")
    first = registry.counter("ops")
    second = registry.counter("ops")
    assert first is second
    assert "ops" in registry
    assert "host1.ops" in registry.all()


def test_registry_prefix_isolation():
    sim = Simulator()
    one = MetricsRegistry(sim, prefix="a")
    two = MetricsRegistry(sim, prefix="b")
    one.counter("ops").add(5)
    assert two.counter("ops").value == 0
