"""SLO burn-rate rules: burn arithmetic, multi-window AND, fire/resolve."""

import pytest

from repro.sim.kernel import Simulator
from repro.telemetry.metrics import Telemetry
from repro.telemetry.slo import (
    AvailabilityRule,
    BurnWindow,
    LatencyRule,
    RatioRule,
    SloRule,
)

WINDOW = BurnWindow(short_s=60.0, long_s=180.0, threshold=2.0)


@pytest.fixture
def telemetry():
    return Telemetry(Simulator(), scrape_interval_s=5.0)


def feed(telemetry, time, good, bad):
    """Land one scrape window's worth of outcome deltas directly."""
    telemetry.rollup('done_total{outcome="success"}', "counter").record(time, good)
    telemetry.rollup('done_total{outcome="error"}', "counter").record(time, bad)


def ratio_rule(objective=0.9, windows=(WINDOW,)):
    return RatioRule(
        name="goodput",
        objective=objective,
        windows=windows,
        bad_metric='done_total{outcome="error"}',
        total_metrics=(
            'done_total{outcome="success"}',
            'done_total{outcome="error"}',
        ),
    )


class TestValidation:
    def test_burn_window_bounds(self):
        with pytest.raises(ValueError):
            BurnWindow(short_s=0.0, long_s=60.0, threshold=1.0)
        with pytest.raises(ValueError):
            BurnWindow(short_s=120.0, long_s=60.0, threshold=1.0)
        with pytest.raises(ValueError):
            BurnWindow(short_s=60.0, long_s=120.0, threshold=0.0)

    def test_objective_bounds(self):
        for objective in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                ratio_rule(objective=objective)

    def test_ratio_rule_needs_metrics(self):
        with pytest.raises(ValueError):
            RatioRule(name="r", objective=0.9)

    def test_latency_rule_needs_metric_and_threshold(self):
        with pytest.raises(ValueError):
            LatencyRule(name="l", objective=0.9)
        with pytest.raises(ValueError):
            LatencyRule(name="l", objective=0.9, metric="m", threshold_s=0.0)

    def test_duplicate_rule_name_rejected(self, telemetry):
        telemetry.add_rule(ratio_rule())
        with pytest.raises(ValueError, match="already registered"):
            telemetry.add_rule(ratio_rule())


class TestBurn:
    def test_burn_is_ratio_over_budget(self, telemetry):
        rule = ratio_rule(objective=0.9)  # budget 0.1
        feed(telemetry, 10.0, good=80.0, bad=20.0)  # ratio 0.2 -> burn 2
        assert rule.burn(telemetry, 60.0, now=20.0) == pytest.approx(2.0)

    def test_no_traffic_means_no_burn(self, telemetry):
        rule = ratio_rule()
        assert rule.burn(telemetry, 60.0, now=20.0) == 0.0

    def test_latency_rule_counts_threshold_breaches(self, telemetry):
        rule = LatencyRule(
            name="p99", objective=0.5, windows=(WINDOW,), metric="lat", threshold_s=10.0
        )
        series = telemetry.rollup("lat", "histogram")
        from repro.sim.stats import LogHistogram

        delta = LogHistogram()
        for value in (1.0, 2.0, 50.0, 80.0):
            delta.record(value)
        series.absorb_histogram(10.0, delta)
        bad, total = rule.bad_total(telemetry, 60.0, now=20.0)
        assert total == 4.0
        assert bad == 2.0
        assert rule.burn(telemetry, 60.0, now=20.0) == pytest.approx(1.0)

    def test_base_rule_is_abstract(self, telemetry):
        rule = SloRule(name="base", objective=0.9)
        with pytest.raises(NotImplementedError):
            rule.bad_total(telemetry, 60.0, 0.0)


class TestFireResolve:
    def test_fires_only_when_both_windows_burn(self, telemetry):
        telemetry.add_rule(ratio_rule(objective=0.9))
        # Short window hot, long window still quiet: 170 s of clean traffic
        # first, then one bad burst.
        for tick in range(17):
            feed(telemetry, tick * 10.0, good=10.0, bad=0.0)
            telemetry.monitor.evaluate(tick * 10.0 + 1.0)
        assert telemetry.monitor.timeline == []
        feed(telemetry, 170.0, good=0.0, bad=10.0)
        telemetry.monitor.evaluate(171.0)
        # Long-window ratio only 10/180 -> burn ~0.56 < 2: still quiet.
        assert telemetry.monitor.timeline == []

    def test_fire_then_resolve(self, telemetry):
        telemetry.add_rule(ratio_rule(objective=0.9))
        for tick in range(6):  # sustained 50% errors for 60 s
            feed(telemetry, tick * 10.0, good=5.0, bad=5.0)
            telemetry.monitor.evaluate(tick * 10.0 + 1.0)
        events = telemetry.monitor.timeline
        assert [event.kind for event in events] == ["fire"]
        assert events[0].rule == "goodput"
        assert events[0].burn_short >= 2.0
        assert len(telemetry.monitor.active_alerts()) == 1

        # Recovery: clean traffic until both windows drain.
        for tick in range(6, 40):
            feed(telemetry, tick * 10.0, good=10.0, bad=0.0)
            telemetry.monitor.evaluate(tick * 10.0 + 1.0)
        kinds = [event.kind for event in telemetry.monitor.timeline]
        assert kinds == ["fire", "resolve"]
        assert telemetry.monitor.active_alerts() == []
        alert = telemetry.monitor.alerts[0]
        assert alert.resolved_at is not None
        assert alert.peak_burn >= 2.0

    def test_refire_after_resolve_is_new_alert(self, telemetry):
        telemetry.add_rule(ratio_rule(objective=0.9, windows=(
            BurnWindow(short_s=30.0, long_s=30.0, threshold=2.0),
        )))
        # Timestamps spaced past the 60 s level-0 window width: trailing()
        # includes whole overlapping windows, so adjacent bursts would smear.
        feed(telemetry, 0.0, good=0.0, bad=10.0)
        telemetry.monitor.evaluate(1.0)
        feed(telemetry, 120.0, good=10.0, bad=0.0)
        telemetry.monitor.evaluate(121.0)
        feed(telemetry, 240.0, good=0.0, bad=10.0)
        telemetry.monitor.evaluate(241.0)
        kinds = [event.kind for event in telemetry.monitor.timeline]
        assert kinds == ["fire", "resolve", "fire"]
        assert len(telemetry.monitor.alerts) == 2

    def test_render_timeline_format(self, telemetry):
        telemetry.add_rule(ratio_rule(objective=0.9, windows=(
            BurnWindow(short_s=30.0, long_s=30.0, threshold=2.0),
        )))
        feed(telemetry, 0.0, good=0.0, bad=10.0)
        telemetry.monitor.evaluate(1.0)
        lines = telemetry.monitor.render_timeline()
        assert len(lines) == 1
        assert "FIRE" in lines[0]
        assert "goodput" in lines[0]
        assert "win 30s/30s x2" in lines[0]


def test_availability_rule_sees_a_host_up_series_first_scraped_mid_run():
    """A probe registered after the rule has run is still part of its prefix."""
    sim = Simulator()
    telemetry = Telemetry(sim, scrape_interval_s=5.0)
    telemetry.probe("host_up", lambda: 1.0, host="h1")
    telemetry.add_rule(
        AvailabilityRule(
            name="fleet",
            objective=0.99,
            windows=(BurnWindow(short_s=30.0, long_s=60.0, threshold=2.0),),
            metric_prefix="host_up",
        )
    )
    telemetry.start()
    sim.run(until=100.0)
    assert telemetry.monitor.timeline == []
    assert list(telemetry.series_matching("host_up")) == ['host_up{host="h1"}']

    telemetry.probe("host_up", lambda: 0.0, host="h2")  # a host that is down
    sim.run(until=200.0)
    assert list(telemetry.series_matching("host_up")) == [
        'host_up{host="h1"}',
        'host_up{host="h2"}',
    ]
    rule = telemetry.monitor.rules[0]
    bad, total = rule.bad_total(telemetry, 60.0, sim.now)
    assert bad > 0 and total > bad
    assert [event.kind for event in telemetry.monitor.timeline] == ["fire"]
    assert telemetry.monitor.timeline[0].time > 100.0
