"""The scraper: a sim-process that snapshots metrics on a cadence.

Each tick it reads every telemetry family, every probe, and every watched
legacy :class:`~repro.sim.stats.MetricsRegistry`, and lands one sample per
metric in that metric's :class:`~repro.telemetry.rollup.RollupSeries`:

- counters (and latency-recorder counts) contribute the *delta* since the
  previous scrape, so window sums read as rates;
- gauges and probes contribute their instantaneous level;
- log-bucket histograms contribute the bucket-wise delta, merged into the
  window's sketch.

Scrape neutrality: the scraper only *reads* model state — it requests no
resources, draws no randomness, and injects no delays beyond its own
timer. Its timer events interleave with the workload's on the shared
sequence counter, but relative order among workload events is preserved,
so task schedules are identical with telemetry on or off (pinned by a
differential test). With telemetry off no scraper exists at all and the
simulation is untouched.
"""

from __future__ import annotations

import typing

from repro.sim.stats import Counter, Gauge, LatencyRecorder, LogHistogram
from repro.telemetry.metrics import LabelValues, format_metric_id

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.metrics import Telemetry


class _HistogramCursor:
    """Last-seen cumulative state of one histogram, for delta scrapes."""

    __slots__ = ("buckets", "zeros", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self.sum = 0.0


class Scraper:
    """Snapshots every registry on a cadence into roll-up series."""

    def __init__(self, telemetry: "Telemetry") -> None:
        self.telemetry = telemetry
        self.scrapes = 0
        self.started = False
        self._until: float | None = None
        self._last_counter: dict[str, float] = {}
        self._hist_cursor: dict[str, _HistogramCursor] = {}
        # Metric ids by (name, labels, suffix): formatting an id costs more
        # than the sample it labels, and a series keeps its id for life.
        self._metric_ids: dict[tuple[str, LabelValues, str], str] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self, until: float | None = None) -> None:
        if self.started:
            raise RuntimeError("scraper already started")
        self.started = True
        self._until = until
        self.telemetry.sim.spawn(self._loop(), name="telemetry:scraper")

    def stop(self) -> None:
        self._until = self.telemetry.sim.now

    def _loop(self) -> typing.Generator:
        sim = self.telemetry.sim
        interval = self.telemetry.scrape_interval_s
        while True:
            yield sim.timeout(interval)
            if self._until is not None and sim.now > self._until:
                return
            self.scrape()

    # -- one scrape ----------------------------------------------------------

    def _metric_id(self, name: str, labels: LabelValues, suffix: str = "") -> str:
        """``format_metric_id(name + suffix, labels)``, formatted once per series."""
        key = (name, labels, suffix)
        metric_id = self._metric_ids.get(key)
        if metric_id is None:
            metric_id = self._metric_ids[key] = format_metric_id(name + suffix, labels)
        return metric_id

    def scrape(self) -> None:
        now = self.telemetry.sim.now
        metric_id_of = self._metric_id
        for family in self.telemetry.families.values():
            kind = family.kind
            for child in family.children():
                metric_id = metric_id_of(child.name, child.labels)
                if kind == "counter":
                    self._sample_counter(metric_id, child.value, now)
                elif kind == "gauge":
                    self._sample_gauge(metric_id, child.value, now)
                else:
                    self._sample_histogram(metric_id, child.hist, now)
        for probe in self.telemetry.probes:
            self._sample_gauge(metric_id_of(probe.name, probe.labels), probe.value, now)
        for registry, labels in self.telemetry.watched:
            for key, metric in registry.all().items():
                if isinstance(metric, Counter):
                    self._sample_counter(metric_id_of(key, labels), metric.value, now)
                elif isinstance(metric, Gauge):
                    self._sample_gauge(metric_id_of(key, labels), metric.value, now)
                elif isinstance(metric, LatencyRecorder):
                    # Count + total seconds as counters: a trailing
                    # window's seconds-sum over count-sum is the mean
                    # latency in that window (triage leans on this to
                    # compare recent vs baseline service times).
                    count_id = metric_id_of(key, labels, ":count")
                    self._sample_counter(count_id, float(metric.count), now)
                    seconds_id = metric_id_of(key, labels, ":seconds")
                    self._sample_counter(
                        seconds_id, float(metric.mean * metric.count), now
                    )
                elif isinstance(metric, LogHistogram):
                    self._sample_histogram(metric_id_of(key, labels), metric, now)
                # Fixed-bin Histogram / TimeSeries keep their own shape;
                # they are post-run analysis structures, not scrape targets.
        self.scrapes += 1
        self.telemetry.monitor.evaluate(now)

    def _sample_counter(self, metric_id: str, value: float, now: float) -> None:
        last = self._last_counter.get(metric_id, 0.0)
        self._last_counter[metric_id] = value
        self.telemetry.rollup(metric_id, "counter").record(now, value - last)

    def _sample_gauge(self, metric_id: str, value: float, now: float) -> None:
        self.telemetry.rollup(metric_id, "gauge").record(now, value)

    def _sample_histogram(self, metric_id: str, hist: LogHistogram, now: float) -> None:
        cursor = self._hist_cursor.get(metric_id)
        if cursor is None:
            cursor = self._hist_cursor[metric_id] = _HistogramCursor()
        if hist.count == cursor.count:
            return
        delta = LogHistogram(metric_id, base=hist.base)
        delta.zeros = hist.zeros - cursor.zeros
        for index, count in hist._buckets.items():
            previous = cursor.buckets.get(index, 0)
            if count > previous:
                delta._buckets[index] = count - previous
        delta._count = hist.count - cursor.count
        delta._sum = hist.total - cursor.sum
        if hist.exemplars:
            # Carry exemplars only for buckets that grew this window, so a
            # window's exemplar really is an observation from that window.
            for index in delta._buckets:
                entry = hist.exemplars.get(index)
                if entry is not None:
                    if delta.exemplars is None:
                        delta.exemplars = {}
                    delta.exemplars[index] = entry
        # Exact min/max of just-this-delta are unknowable from cumulative
        # state; bound them by the delta's own bucket range.
        if delta._buckets:
            low = min(delta._buckets)
            high = max(delta._buckets)
            delta._min = hist.base ** low
            delta._max = hist.base ** (high + 1)
        elif delta.zeros:
            delta._min = 0.0
            delta._max = 0.0
        cursor.buckets = dict(hist._buckets)
        cursor.zeros = hist.zeros
        cursor.count = hist.count
        cursor.sum = hist.total
        self.telemetry.rollup(metric_id, "histogram").absorb_histogram(now, delta)
