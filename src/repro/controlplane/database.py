"""The management database: a connection pool with per-row write costs.

Every task transition and inventory mutation lands here. Under clone
storms this pool is one of the three contended control-plane resources
(with the CPU pool and host-agent slots); its utilization is a headline
series in R-F5.
"""

from __future__ import annotations

import random
import typing

from repro.faults.hooks import FaultHook
from repro.sim.kernel import Simulator
from repro.sim.random import service_time
from repro.sim.resources import Resource
from repro.sim.stats import Counter, LatencyRecorder, MetricsRegistry
from repro.tracing import NULL_SPAN, PHASE_DB, PHASE_QUEUE
from repro.controlplane.costs import ControlPlaneCosts


class DatabaseModel:
    """A fixed-size connection pool executing timed reads and writes."""

    def __init__(
        self,
        sim: Simulator,
        costs: ControlPlaneCosts,
        connections: int,
        rng: random.Random,
        batching: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.batching = batching
        self.rng = rng
        self.metrics = metrics or MetricsRegistry(sim, prefix="db")
        self.pool = Resource(sim, capacity=connections, name="db-connections")
        self.faults = FaultHook(sim, name="db", rng=rng)
        self._busy_seconds = 0.0
        self._slowdown = 1.0
        self._handles: dict[str, tuple[Counter, LatencyRecorder]] = {}

    def set_slowdown(self, factor: float) -> None:
        """Degrade the database (failure/overload injection). 1.0 = healthy."""
        if factor < 1.0:
            raise ValueError("slowdown factor must be >= 1.0")
        self._slowdown = factor

    def write(
        self, rows: int = 1, span=NULL_SPAN
    ) -> typing.Generator[typing.Any, typing.Any, float]:
        """Process-style: write ``rows`` row-groups; returns elapsed seconds."""
        if rows < 1:
            raise ValueError("rows must be >= 1")
        per_row = self.costs.db_write_s
        if self.batching:
            per_row /= self.costs.db_batch_factor
        return self._execute(per_row * rows, "writes", rows, span)

    def read(
        self, rows: int = 1, span=NULL_SPAN
    ) -> typing.Generator[typing.Any, typing.Any, float]:
        """Process-style: read ``rows`` row-groups; returns elapsed seconds."""
        if rows < 1:
            raise ValueError("rows must be >= 1")
        return self._execute(self.costs.db_read_s * rows, "reads", rows, span)

    def _execute(
        self, median: float, kind: str, rows: int, span=NULL_SPAN
    ) -> typing.Generator[typing.Any, typing.Any, float]:
        start = self.sim.now
        traced = not span.is_null
        if traced:
            span = span.child(f"db.{kind}", phase=PHASE_DB, tags={"rows": rows})
        try:
            # Injected DB faults surface before any connection is consumed:
            # one-shot errors fail the statement, latency windows stretch it.
            factor = self.faults.fire()
            request = self.pool.request()
            if traced:
                wait_span = span.child(
                    "db.pool_wait", phase=PHASE_QUEUE, tags={"wait": True}
                )
            yield request
            if traced:
                wait_span.finish()
            service = (
                service_time(self.rng, median, self.costs.sigma)
                * self._slowdown
                * factor
            )
            try:
                yield self.sim.timeout(service)
            finally:
                self.pool.release(request)
        except BaseException as exc:
            span.finish(error=type(exc).__name__)
            raise
        if traced:
            span.finish()
        self._busy_seconds += service
        handles = self._handles.get(kind)
        if handles is None:
            # Bound on first use, so the registry keeps first-use order.
            handles = self._handles[kind] = (
                self.metrics.counter(kind),
                self.metrics.latency(f"{kind}_latency"),
            )
        elapsed = self.sim.now - start
        handles[0].add(rows)
        handles[1].record(elapsed)
        return elapsed

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of the pool busy over [since, now]."""
        span = self.sim.now - since
        if span <= 0:
            return 0.0
        return min(1.0, self._busy_seconds / (span * self.pool.capacity))

    @property
    def queue_depth(self) -> int:
        return self.pool.queue_depth
