"""Unit tests for the uniform fault-injection hook."""

import random

import pytest

from repro.faults import ALL_KEYS, FaultHook, InjectedFault, TransientError
from repro.sim import Simulator


@pytest.fixture
def hook():
    return FaultHook(Simulator(), name="unit", rng=random.Random(7))


def test_unarmed_hook_returns_unit_factor(hook):
    assert not hook.armed
    assert hook.fire() == 1.0
    assert hook.injected == 0


def test_idle_fire_leaves_rng_and_injected_untouched(hook):
    before = hook.rng.getstate()
    for key in (None, "ds-1", ALL_KEYS):
        assert hook.fire(key) == 1.0
    assert hook.rng.getstate() == before
    assert hook.injected == 0
    # A window that came and went leaves the hook idle again.
    hook.set_drop("window", 0.5)
    hook.set_latency("window", 3.0)
    hook.disarm("window")
    assert hook.fire() == 1.0
    assert hook.rng.getstate() == before
    assert hook.injected == 0


def test_arm_once_fires_exactly_once(hook):
    hook.arm_once()
    with pytest.raises(InjectedFault):
        hook.fire()
    assert hook.fire() == 1.0
    assert hook.injected == 1


def test_arm_once_custom_error(hook):
    class Weird(TransientError):
        pass

    hook.arm_once(Weird("boom"))
    with pytest.raises(Weird, match="boom"):
        hook.fire()


def test_arm_once_queues_in_order(hook):
    hook.arm_once(InjectedFault("first"))
    hook.arm_once(InjectedFault("second"))
    with pytest.raises(InjectedFault, match="first"):
        hook.fire()
    with pytest.raises(InjectedFault, match="second"):
        hook.fire()


def test_drop_rate_fails_probabilistically(hook):
    hook.set_drop("window", 0.5)
    outcomes = []
    for _ in range(200):
        try:
            hook.fire()
            outcomes.append(False)
        except InjectedFault:
            outcomes.append(True)
    failed = sum(outcomes)
    assert 60 < failed < 140
    assert hook.injected == failed


def test_drop_rates_compose_as_independent_events(hook):
    hook.set_drop("a", 0.5)
    hook.set_drop("b", 0.5)
    assert hook.drop_rate == pytest.approx(0.75)
    hook.clear_drop("a")
    assert hook.drop_rate == pytest.approx(0.5)


def test_drop_rate_validated(hook):
    with pytest.raises(ValueError, match="drop rate"):
        hook.set_drop("w", 1.5)


def test_latency_factors_multiply_across_sources(hook):
    hook.set_latency("a", 2.0)
    hook.set_latency("b", 3.0)
    assert hook.fire() == pytest.approx(6.0)
    hook.clear_latency("b")
    assert hook.fire() == pytest.approx(2.0)


def test_latency_factor_validated(hook):
    with pytest.raises(ValueError, match="latency factor"):
        hook.set_latency("w", 0.5)


def test_keyed_block_only_hits_matching_key(hook):
    hook.block("outage", key="ds-1")
    with pytest.raises(InjectedFault, match="ds-1"):
        hook.fire(key="ds-1")
    assert hook.fire(key="ds-2") == 1.0
    assert hook.fire() == 1.0  # unkeyed fire misses a keyed block


def test_star_block_hits_everything(hook):
    hook.block("outage", key=ALL_KEYS)
    with pytest.raises(InjectedFault):
        hook.fire(key="anything")
    with pytest.raises(InjectedFault):
        hook.fire()


def test_disarm_removes_every_shape_for_source(hook):
    hook.set_drop("w", 1.0)
    hook.set_latency("w", 4.0)
    hook.block("w")
    hook.set_latency("other", 2.0)
    hook.disarm("w")
    assert hook.fire() == pytest.approx(2.0)  # other window still armed
    assert hook.armed


def test_error_factory_controls_exception_type():
    class AgentDown(TransientError):
        pass

    hook = FaultHook(Simulator(), name="agent", error_factory=AgentDown)
    hook.block("w")
    with pytest.raises(AgentDown):
        hook.fire()
