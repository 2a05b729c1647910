"""Labeled metric families and the :class:`Telemetry` hub.

A :class:`Telemetry` object owns every live metric family for one
simulation, the probe list sampled at scrape time, the scraped roll-up
store, and the SLO monitor. Components receive it at construction and
grab *handles* once::

    self._t_calls = telemetry.counter("hostd_calls_total", host=host.name)
    ...
    self._t_calls.add()          # hot path: one bound-method call

:data:`NULL_TELEMETRY` is the disabled twin (mirroring tracing's
``NULL_TRACER``): every family request returns the shared
:data:`NULL_METRIC` singleton and probes/watches are dropped, so a
simulation constructed without telemetry allocates nothing per event and
pays only a no-op method call at each instrumentation point.
"""

from __future__ import annotations

import math
import types
import typing

from repro.sim.stats import (
    LOG_HISTOGRAM_BASE,
    LogHistogram,
    MetricsRegistry,
)
from repro.telemetry.rollup import DEFAULT_RETENTION, RollupSeries

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.telemetry.slo import SloMonitor, SloRule

LabelValues = typing.Tuple[typing.Tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelValues:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_metric_id(name: str, labels: LabelValues) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class TCounter:
    """A labeled child counter: monotone, finite increments only."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelValues = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if not math.isfinite(amount) or amount < 0:
            raise ValueError(
                f"counter {self.name!r} increment must be finite and >= 0, got {amount!r}"
            )
        self.value += amount


class TGauge:
    """A labeled child gauge: an instantaneous level."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelValues = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"gauge {self.name!r} level must be finite, got {value!r}")
        self.value = value

    def add(self, delta: float) -> None:
        if not math.isfinite(delta):
            raise ValueError(f"gauge {self.name!r} delta must be finite, got {delta!r}")
        self.value += delta


class THistogram:
    """A labeled child histogram over fixed log buckets (mergeable)."""

    __slots__ = ("name", "labels", "hist")

    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelValues = (), base: float = LOG_HISTOGRAM_BASE
    ) -> None:
        self.name = name
        self.labels = labels
        self.hist = LogHistogram(name, base=base)

    def observe(self, value: float, trace_id: int | None = None) -> None:
        """Record an observation, optionally stamping a trace-id exemplar.

        Callers pass ``trace_id`` only when tracing is live (guard on
        ``span.is_null``), so the untraced path stays allocation-free.
        """
        self.hist.record(value, exemplar=trace_id)


class NullMetric:
    """The inert metric: every mutation is a no-op, every read is zero."""

    __slots__ = ()

    name = ""
    labels: LabelValues = ()
    kind = "null"
    value = 0.0

    def add(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, trace_id: int | None = None) -> None:
        pass


NULL_METRIC = NullMetric()


class MetricFamily:
    """All children of one metric name, keyed by label values."""

    __slots__ = ("name", "kind", "help", "base", "_children")

    FACTORIES: typing.ClassVar[dict[str, type]] = {
        "counter": TCounter,
        "gauge": TGauge,
        "histogram": THistogram,
    }

    def __init__(
        self, name: str, kind: str, help: str = "", base: float = LOG_HISTOGRAM_BASE
    ) -> None:
        if kind not in self.FACTORIES:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.base = base
        self._children: dict[LabelValues, typing.Any] = {}

    def labels(self, **labels: str) -> typing.Any:
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = THistogram(self.name, key, base=self.base)
            else:
                child = self.FACTORIES[self.kind](self.name, key)
            self._children[key] = child
        return child

    def children(self) -> list[typing.Any]:
        return list(self._children.values())


class Probe:
    """A read-only callback sampled at scrape time (gauge semantics).

    The function must only *read* simulation state — it runs inside the
    scraper and anything it mutates would break scrape neutrality.
    """

    __slots__ = ("name", "labels", "fn")

    kind = "probe"

    def __init__(self, name: str, fn: typing.Callable[[], float], labels: LabelValues = ()) -> None:
        self.name = name
        self.labels = labels
        self.fn = fn

    @property
    def value(self) -> float:
        return float(self.fn())


class Telemetry:
    """The live telemetry pipeline for one simulation.

    Owns metric families, probes, watched legacy registries, the scraped
    roll-up store, and the SLO monitor. ``start()`` launches the
    :class:`~repro.telemetry.scraper.Scraper` sim-process.
    """

    enabled: typing.ClassVar[bool] = True

    def __init__(
        self,
        sim: "Simulator",
        scrape_interval_s: float = 5.0,
        retention: tuple[tuple[float, int], ...] = DEFAULT_RETENTION,
        histogram_base: float = LOG_HISTOGRAM_BASE,
    ) -> None:
        from repro.telemetry.scraper import Scraper
        from repro.telemetry.slo import SloMonitor

        if scrape_interval_s <= 0:
            raise ValueError("scrape_interval_s must be positive")
        self.sim = sim
        self.scrape_interval_s = scrape_interval_s
        self.retention = retention
        self.histogram_base = histogram_base
        self.families: dict[str, MetricFamily] = {}
        self.probes: list[Probe] = []
        self.watched: list[tuple[MetricsRegistry, LabelValues]] = []
        self.rollups: dict[str, RollupSeries] = {}
        # series_matching() results by prefix, kept current by rollup():
        # SLO rules ask for the same prefixes on every scrape.
        self._prefix_index: dict[str, dict[str, RollupSeries]] = {}
        self.scraper = Scraper(self)
        self.monitor: "SloMonitor" = SloMonitor(self)

    # -- family construction -------------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> MetricFamily:
        family = self.families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help=help, base=self.histogram_base)
            self.families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> TCounter:
        return self._family(name, "counter", help).labels(**labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> TGauge:
        return self._family(name, "gauge", help).labels(**labels)

    def histogram(self, name: str, help: str = "", **labels: str) -> THistogram:
        return self._family(name, "histogram", help).labels(**labels)

    def probe(
        self, name: str, fn: typing.Callable[[], float], help: str = "", **labels: str
    ) -> Probe:
        probe = Probe(name, fn, _label_key(labels))
        self.probes.append(probe)
        return probe

    def watch_registry(self, registry: MetricsRegistry, **labels: str) -> None:
        """Include a legacy :class:`MetricsRegistry` in every scrape.

        Counters become per-window rates, gauges become sampled levels,
        latency recorders contribute their count as a rate. The registry
        is only ever read.
        """
        self.watched.append((registry, _label_key(labels)))

    # -- scrape store --------------------------------------------------------

    def rollup(self, metric_id: str, kind: str) -> RollupSeries:
        series = self.rollups.get(metric_id)
        if series is None:
            series = RollupSeries(
                metric_id, kind=kind, retention=self.retention, base=self.histogram_base
            )
            self.rollups[metric_id] = series
            for prefix, matching in self._prefix_index.items():
                if metric_id.startswith(prefix):
                    matching[metric_id] = series
        return series

    def series(self, name: str, **labels: str) -> RollupSeries | None:
        """The scraped roll-up series for one metric id, if any."""
        return self.rollups.get(format_metric_id(name, _label_key(labels)))

    def series_matching(self, prefix: str) -> dict[str, RollupSeries]:
        """Every series whose id starts with ``prefix``, in creation order."""
        matching = self._prefix_index.get(prefix)
        if matching is None:
            matching = self._prefix_index[prefix] = {
                metric_id: series
                for metric_id, series in self.rollups.items()
                if metric_id.startswith(prefix)
            }
        return dict(matching)

    # -- lifecycle -----------------------------------------------------------

    def start(self, until: float | None = None) -> "Telemetry":
        """Begin scraping on the configured cadence; returns self."""
        self.scraper.start(until=until)
        return self

    def stop(self) -> None:
        self.scraper.stop()

    def scrape_now(self) -> None:
        """Take one scrape immediately (also evaluates SLO rules)."""
        self.scraper.scrape()

    # -- SLO surface ---------------------------------------------------------

    def add_rule(self, rule: "SloRule") -> None:
        self.monitor.add(rule)

    @property
    def alerts(self):
        return self.monitor.timeline


class NullTelemetry:
    """Telemetry disabled: every request yields the inert singleton.

    Shared module-wide (:data:`NULL_TELEMETRY`), so the disabled path
    allocates nothing — handles are the one NULL_METRIC, probe and watch
    registrations are dropped on the floor.
    """

    enabled: typing.ClassVar[bool] = False
    # Immutable empties: class attributes are shared by every instance.
    families: typing.Mapping[str, MetricFamily] = types.MappingProxyType({})
    probes: tuple[Probe, ...] = ()
    rollups: typing.Mapping[str, RollupSeries] = types.MappingProxyType({})

    def counter(self, name: str, help: str = "", **labels: str) -> NullMetric:
        return NULL_METRIC

    def gauge(self, name: str, help: str = "", **labels: str) -> NullMetric:
        return NULL_METRIC

    def histogram(self, name: str, help: str = "", **labels: str) -> NullMetric:
        return NULL_METRIC

    def probe(self, name: str, fn, help: str = "", **labels: str) -> None:
        return None

    def watch_registry(self, registry, **labels) -> None:
        return None

    def rollup(self, metric_id: str, kind: str) -> None:
        return None

    def series(self, name: str, **labels: str) -> None:
        return None

    def series_matching(self, prefix: str) -> dict:
        return {}

    def start(self, until: float | None = None) -> "NullTelemetry":
        return self

    def stop(self) -> None:
        pass

    def scrape_now(self) -> None:
        pass

    def add_rule(self, rule) -> None:
        pass

    @property
    def alerts(self):
        return ()


NULL_TELEMETRY = NullTelemetry()
