"""Unit tests for named random streams."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import RandomStreams
from repro.sim.random import (
    bounded,
    exponential,
    lognormal_from_median,
    pareto,
    service_time,
)


def test_same_seed_same_stream():
    a = RandomStreams(seed=1).stream("arrivals")
    b = RandomStreams(seed=1).stream("arrivals")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RandomStreams(seed=1)
    a = streams.stream("arrivals")
    b = streams.stream("lifetimes")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_differ():
    a = RandomStreams(seed=1).stream("x")
    b = RandomStreams(seed=2).stream("x")
    assert a.random() != b.random()


def test_stream_is_cached():
    streams = RandomStreams(seed=1)
    assert streams.stream("x") is streams.stream("x")


def test_spawn_child_is_independent():
    parent = RandomStreams(seed=1)
    child = parent.spawn("worker")
    assert parent.stream("x").random() != child.stream("x").random()


def test_exponential_mean_rough():
    rng = RandomStreams(seed=3).stream("exp")
    samples = [exponential(rng, 10.0) for _ in range(20000)]
    mean = sum(samples) / len(samples)
    assert 9.0 < mean < 11.0


def test_exponential_nonpositive_mean_is_zero():
    rng = RandomStreams(seed=3).stream("exp")
    assert exponential(rng, 0.0) == 0.0
    assert exponential(rng, -5.0) == 0.0


def test_lognormal_median_rough():
    rng = RandomStreams(seed=4).stream("ln")
    samples = sorted(lognormal_from_median(rng, 8.0, 0.5) for _ in range(20001))
    median = samples[len(samples) // 2]
    assert 7.0 < median < 9.0


def test_lognormal_nonpositive_median_is_zero():
    rng = RandomStreams(seed=4).stream("ln")
    assert lognormal_from_median(rng, 0.0, 0.5) == 0.0


def test_bounded_clamps():
    assert bounded(5.0, 0.0, 1.0) == 1.0
    assert bounded(-5.0, 0.0, 1.0) == 0.0
    assert bounded(0.5, 0.0, 1.0) == 0.5


def test_pareto_lower_bound_is_scale():
    rng = RandomStreams(seed=5).stream("p")
    samples = [pareto(rng, shape=2.0, scale=3.0) for _ in range(1000)]
    assert min(samples) >= 3.0


def test_pareto_validates_parameters():
    rng = RandomStreams(seed=5).stream("p")
    with pytest.raises(ValueError):
        pareto(rng, shape=0.0, scale=1.0)
    with pytest.raises(ValueError):
        pareto(rng, shape=1.0, scale=0.0)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    median=st.one_of(
        st.just(0.0),
        st.just(float("nan")),
        st.floats(min_value=-1e3, max_value=-1e-9),
        st.floats(min_value=1e-9, max_value=1e3),
    ),
    sigma=st.floats(min_value=0.0, max_value=4.0),
)
def test_service_time_is_the_bounded_lognormal_bit_for_bit(seed, median, sigma):
    reference, fused = random.Random(seed), random.Random(seed)
    # Several draws in a row also cover gauss()'s cached second variate.
    for _ in range(3):
        expected = bounded(
            lognormal_from_median(reference, median, sigma),
            median * 0.25,
            median * 10.0,
        )
        assert service_time(fused, median, sigma).hex() == expected.hex()
    assert fused.getstate() == reference.getstate()
