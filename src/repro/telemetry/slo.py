"""SLO rules, multi-window burn-rate evaluation, and the alert timeline.

A rule names an objective ("99.5% of deploys are good") and the burn-rate
windows that guard it. On every scrape the monitor computes the bad/total
ratio over each trailing window pair from the roll-up store, converts it
to a *burn rate* (budget consumption speed: burn 1 means the error budget
exactly lasts the compliance period; burn N means it dies N times
faster), and fires when **both** the short and long window exceed the
pair's threshold — the standard multi-window construction that makes
alerts fast on real regressions and quiet on blips. All times are
simulated time.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.metrics import Telemetry


@dataclasses.dataclass(frozen=True)
class BurnWindow:
    """One (short, long, threshold) multi-window burn-rate pair."""

    short_s: float
    long_s: float
    threshold: float

    def __post_init__(self) -> None:
        if self.short_s <= 0 or self.long_s < self.short_s:
            raise ValueError("need 0 < short_s <= long_s")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


#: Default guard: a fast pair for sharp regressions and a slower pair for
#: sustained simmering burn (timescales suit the simulated fault storms).
DEFAULT_BURN_WINDOWS = (
    BurnWindow(short_s=60.0, long_s=300.0, threshold=4.0),
    BurnWindow(short_s=300.0, long_s=900.0, threshold=1.5),
)


@dataclasses.dataclass(frozen=True)
class SloRule:
    """Base rule: subclasses define how bad/total are read from roll-ups."""

    name: str
    objective: float  # target good fraction, e.g. 0.995
    windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if not self.windows:
            raise ValueError("rule needs at least one burn window")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    def bad_total(
        self, telemetry: "Telemetry", horizon_s: float, now: float
    ) -> tuple[float, float]:
        raise NotImplementedError

    def burn(self, telemetry: "Telemetry", horizon_s: float, now: float) -> float:
        bad, total = self.bad_total(telemetry, horizon_s, now)
        if total <= 0:
            return 0.0
        return (bad / total) / self.budget


@dataclasses.dataclass(frozen=True)
class RatioRule(SloRule):
    """Bad/total from counter series (e.g. task errors vs completions).

    ``total_metrics`` sum — pass every outcome counter (including the bad
    one) when the total is split across labels.
    """

    bad_metric: str = ""
    total_metrics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.bad_metric or not self.total_metrics:
            raise ValueError("ratio rule needs bad_metric and total_metrics")

    def _trailing_sum(self, telemetry, metric_id, horizon_s, now):
        series = telemetry.rollups.get(metric_id)
        return series.trailing_count_sum(horizon_s, now)[1] if series else 0.0

    def bad_total(self, telemetry, horizon_s, now):
        bad = self._trailing_sum(telemetry, self.bad_metric, horizon_s, now)
        total = sum(
            self._trailing_sum(telemetry, metric_id, horizon_s, now)
            for metric_id in self.total_metrics
        )
        return bad, total


@dataclasses.dataclass(frozen=True)
class LatencyRule(SloRule):
    """Bad = samples at/above a threshold in one histogram series.

    The threshold is resolved at log-bucket granularity, counting any
    straddling bucket as bad — conservative in the alerting direction.
    """

    metric: str = ""
    threshold_s: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.metric:
            raise ValueError("latency rule needs a histogram metric")
        if self.threshold_s <= 0:
            raise ValueError("threshold_s must be positive")

    def bad_total(self, telemetry, horizon_s, now):
        series = telemetry.rollups.get(self.metric)
        if series is None:
            return 0.0, 0.0
        window = series.trailing(horizon_s, now)
        return float(window.hist.count_at_or_above(self.threshold_s)), float(window.count)


@dataclasses.dataclass(frozen=True)
class AvailabilityRule(SloRule):
    """Bad = 0-samples across every 0/1 gauge series under a prefix.

    For an up/down probe scraped as a gauge the window ``sum`` is the
    number of "up" samples and ``count`` the total, so ``count - sum`` is
    downtime measured in scrape samples — no per-sample storage needed.
    One rule over ``host_up`` turns sixteen per-host probes into a single
    fleet-availability burn: two hosts down out of sixteen is a 12.5%
    bad fraction, far over any sane budget, without any user-visible
    task failing. This is how infra-only faults (a flap the placement
    engine routes around) still reach the alert timeline.
    """

    metric_prefix: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.metric_prefix:
            raise ValueError("availability rule needs a metric prefix")

    def bad_total(self, telemetry, horizon_s, now):
        bad = total = 0.0
        for series in telemetry.series_matching(self.metric_prefix).values():
            count, up = series.trailing_count_sum(horizon_s, now)
            bad += count - up
            total += count
        return bad, total


@dataclasses.dataclass
class AlertEvent:
    """One transition on the alert timeline."""

    time: float
    rule: str
    kind: str  # "fire" | "resolve"
    burn_short: float
    burn_long: float
    window: BurnWindow


@dataclasses.dataclass
class Alert:
    """One contiguous firing of a rule."""

    rule: str
    fired_at: float
    window: BurnWindow
    resolved_at: float | None = None
    peak_burn: float = 0.0

    @property
    def active(self) -> bool:
        return self.resolved_at is None


class SloMonitor:
    """Evaluates every rule after each scrape; keeps the alert timeline."""

    def __init__(self, telemetry: "Telemetry") -> None:
        self.telemetry = telemetry
        self.rules: list[SloRule] = []
        self.timeline: list[AlertEvent] = []
        self.alerts: list[Alert] = []
        self._active: dict[str, Alert] = {}
        # Fire hooks: called as listener(alert, now) on each new firing.
        # Listeners must be read-only w.r.t. the simulation (the triage
        # engine attaches here) so scrapes stay schedule-neutral.
        self.listeners: list[typing.Callable[[Alert, float], None]] = []

    def add(self, rule: SloRule) -> None:
        if any(existing.name == rule.name for existing in self.rules):
            raise ValueError(f"rule {rule.name!r} already registered")
        self.rules.append(rule)

    def active_alerts(self) -> list[Alert]:
        return [alert for alert in self.alerts if alert.active]

    def evaluate(self, now: float) -> None:
        for rule in self.rules:
            firing_pair: BurnWindow | None = None
            burn_short = burn_long = 0.0
            for pair in rule.windows:
                short = rule.burn(self.telemetry, pair.short_s, now)
                long = rule.burn(self.telemetry, pair.long_s, now)
                if short >= pair.threshold and long >= pair.threshold:
                    firing_pair = pair
                    burn_short, burn_long = short, long
                    break
            active = self._active.get(rule.name)
            if firing_pair is not None:
                if active is None:
                    alert = Alert(rule=rule.name, fired_at=now, window=firing_pair)
                    self._active[rule.name] = alert
                    self.alerts.append(alert)
                    self.timeline.append(
                        AlertEvent(now, rule.name, "fire", burn_short, burn_long, firing_pair)
                    )
                    for listener in self.listeners:
                        listener(alert, now)
                    active = alert
                active.peak_burn = max(active.peak_burn, burn_short)
            elif active is not None:
                active.resolved_at = now
                del self._active[rule.name]
                self.timeline.append(
                    AlertEvent(now, rule.name, "resolve", burn_short, burn_long, active.window)
                )

    def render_timeline(self) -> list[str]:
        """Human-readable timeline lines (the R-F-alerts exhibit body)."""
        out = []
        for event in self.timeline:
            arrow = "FIRE   " if event.kind == "fire" else "resolve"
            out.append(
                f"t={event.time:8.1f}s  {arrow} {event.rule:<24} "
                f"burn short={event.burn_short:5.1f} long={event.burn_long:5.1f} "
                f"(win {event.window.short_s:.0f}s/{event.window.long_s:.0f}s"
                f" x{event.window.threshold:g})"
            )
        return out
