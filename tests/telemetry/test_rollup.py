"""Roll-up series: window alignment, fold-up, bounded memory, invariance.

The headline property (hypothesis): a roll-up of roll-ups equals the
roll-up of the raw samples — exactly for count/sum/min/max, within one
log bucket for quantiles. That is what makes the vCenter-style
level/rollup hierarchy lossless for SLO accounting.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import LogHistogram
from repro.telemetry.rollup import (
    DEFAULT_RETENTION,
    RollupSeries,
    Window,
    merge_windows,
)

sample_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=7200.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=150,
).map(lambda pairs: sorted(pairs))


class TestWindow:
    def test_record_tracks_exact_scalars(self):
        window = Window(0.0, 60.0)
        for value in (3.0, 1.0, 5.0):
            window.record(value)
        assert window.count == 3
        assert window.sum == 9.0
        assert window.min == 1.0
        assert window.max == 5.0
        assert window.last == 5.0
        assert window.mean == 3.0
        assert window.rate == pytest.approx(9.0 / 60.0)

    def test_summary_empty_window_is_all_zero(self):
        summary = Window(0.0, 60.0).summary()
        assert summary["count"] == 0
        assert summary["min"] == 0.0
        assert summary["max"] == 0.0
        assert summary["p99"] == 0.0

    def test_absorb_histogram_delta(self):
        window = Window(0.0, 60.0)
        delta = LogHistogram()
        delta.record(2.0)
        delta.record(8.0)
        window.absorb_histogram(delta)
        assert window.count == 2
        assert window.sum == pytest.approx(10.0)
        assert window.min == 2.0
        assert window.max == 8.0


class TestRollupSeries:
    def test_windows_align_to_width(self):
        series = RollupSeries("m", retention=((60.0, 4),))
        series.record(61.0, 1.0)
        series.record(119.0, 2.0)
        series.record(180.0, 3.0)
        windows = series.windows(level=0)
        assert [window.start for window in windows] == [60.0, 180.0]
        assert windows[0].count == 2
        assert windows[1].count == 1

    def test_out_of_order_sample_rejected(self):
        series = RollupSeries("m", retention=((60.0, 4),))
        series.record(120.0, 1.0)
        with pytest.raises(ValueError):
            series.record(30.0, 1.0)

    def test_eviction_folds_into_next_level(self):
        series = RollupSeries("m", retention=((10.0, 2), (30.0, 4)))
        for tick in range(9):  # samples at t=0,10,...,80 -> 9 windows
            series.record(tick * 10.0, float(tick))
        level0 = series.windows(level=0)
        assert len(level0) <= 3  # 2 closed + open
        level1 = series.windows(level=1)
        assert level1, "evicted level-0 windows must fold into level 1"
        assert all(window.width == 30.0 for window in level1)
        # No sample lost across the hierarchy.
        total = sum(w.count for w in level0) + sum(w.count for w in level1)
        assert total == 9

    def test_memory_strictly_bounded(self):
        retention = ((10.0, 3), (50.0, 2), (100.0, 2))
        series = RollupSeries("m", retention=retention)
        cap = sum(keep for _, keep in retention) + len(retention)  # + open/aggs
        for tick in range(5000):
            series.record(tick * 7.0, 1.0)
            assert series.total_windows() <= cap

    def test_retention_validation(self):
        with pytest.raises(ValueError):
            RollupSeries("m", retention=())
        with pytest.raises(ValueError):
            RollupSeries("m", retention=((60.0, 0),))
        with pytest.raises(ValueError):
            RollupSeries("m", retention=((60.0, 4), (90.0, 2)))  # not a multiple

    def test_trailing_merges_only_recent_windows(self):
        series = RollupSeries("m", retention=((60.0, 60),))
        series.record(30.0, 10.0)
        series.record(400.0, 2.0)
        series.record(430.0, 4.0)
        recent = series.trailing(120.0, now=450.0)
        assert recent.count == 2
        assert recent.sum == 6.0
        everything = series.trailing(1000.0, now=450.0)
        assert everything.count == 3
        assert everything.sum == 16.0

    def test_last_value_and_latest(self):
        series = RollupSeries("m")
        assert series.latest() is None
        assert series.last_value() == 0.0
        series.record(5.0, 42.0)
        assert series.last_value() == 42.0


@given(sample_streams)
@settings(max_examples=60)
def test_rollup_of_rollups_matches_raw(stream):
    """Level-1 fold-ups agree with directly rolling up the raw samples."""
    series = RollupSeries("m", retention=((60.0, 1), (300.0, 48)))
    for time, value in stream:
        series.record(time, value)
    # Force everything out of level 0.
    series.record(stream[-1][0] + 120.0, 0.0)

    rolled = merge_windows(
        series.windows(level=0, include_open=True) + series.windows(level=1)
    )
    raw = Window(0.0, 7200.0)
    for _, value in stream:
        raw.record(value)
    raw.record(0.0)  # the flush sample

    assert rolled.count == raw.count
    assert rolled.sum == pytest.approx(raw.sum)
    assert rolled.min == raw.min
    assert rolled.max == raw.max
    # Quantiles agree to the bucket: identical sketches either way.
    assert rolled.hist._buckets == raw.hist._buckets
    assert rolled.hist.zeros == raw.hist.zeros


@given(sample_streams, st.floats(min_value=0.05, max_value=0.99))
@settings(max_examples=60)
def test_trailing_window_equals_direct_rollup(stream, fraction):
    """trailing() over the whole span reproduces the raw-sample roll-up."""
    series = RollupSeries("m", retention=((60.0, 200),))
    for time, value in stream:
        series.record(time, value)
    now = stream[-1][0] + 1.0
    merged = series.trailing(now + 60.0, now=now)

    values = [value for _, value in stream]
    assert merged.count == len(values)
    assert merged.sum == pytest.approx(math.fsum(values))
    assert merged.min == min(values)
    assert merged.max == max(values)
    direct = LogHistogram()
    for value in values:
        direct.record(value)
    low, high = direct.quantile_bounds(fraction)
    assert low <= merged.p(fraction) * (1 + 1e-9)
    assert merged.p(fraction) <= high * (1 + 1e-9)


def test_default_retention_covers_an_hour_at_level_0():
    width, keep = DEFAULT_RETENTION[0]
    assert width * keep >= 3600.0


# Sample times that often land exactly on a 60 s window boundary, where the
# trailing-window edge rules (start < now, end > cutoff) decide membership.
boundary_times = st.one_of(
    st.floats(min_value=0.0, max_value=7200.0, allow_nan=False),
    st.integers(min_value=0, max_value=120).map(lambda k: k * 60.0),
)


def _reference_count_sum(series, seconds, now):
    """The trailing window's count/sum by a full scan of every level-0 window."""
    count, total = 0, 0.0
    cutoff = now - seconds
    for window in series.windows(level=0, include_open=True):
        if window.end > cutoff and window.start < now and window.count:
            count += window.count
            total += window.sum
    return count, total


@given(
    st.lists(
        st.tuples(boundary_times, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        min_size=1,
        max_size=150,
    ).map(sorted),
    st.one_of(
        st.floats(min_value=0.0, max_value=4000.0, allow_nan=False),
        st.sampled_from([60.0, 300.0, 900.0]),
    ),
    st.sampled_from([0.0, 1.0, 59.999, 60.0, 600.0]),
)
@settings(max_examples=120)
def test_scalar_trailing_is_bit_identical_to_trailing(stream, seconds, lag):
    """trailing_count_sum() equals trailing().count/.sum to the last bit.

    The small retention folds level-0 windows up to levels 1 and 2 while
    the stream is recorded, and the series is queried after every sample.
    """
    series = RollupSeries("m", retention=((60.0, 4), (300.0, 3), (1800.0, 2)))
    for time, value in stream:
        series.record(time, value)
        for now in (time, time + lag):
            count, total = series.trailing_count_sum(seconds, now)
            window = series.trailing(seconds, now)
            assert count == window.count
            assert total.hex() == float(window.sum).hex()
            ref_count, ref_total = _reference_count_sum(series, seconds, now)
            assert count == ref_count
            assert total.hex() == ref_total.hex()
