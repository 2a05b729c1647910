"""The four benchmark workloads, run through the simulator's public entry points.

Each workload is a function ``(seed, scale) -> Finished``. Everything it
does before the first simulated event is set-up; the simulation and the
workload's own result analysis (the ``summary``) are the timed phase. The
``probe`` closure reads invariants and per-layer counters from public
state *after* the timed phase, so reading them costs the workload nothing.

``scale`` shrinks the workload size (1.0 is the benchmark size; the
benchmark's own test runs at a few percent). Importing this module imports
``repro``, which is part of every workload's set-up.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
import typing

from repro.core.experiments import StormRig, hyperscale_sweep
from repro.core.parallel import derive_seed
from repro.core.scenario import Scenario
from repro.faults.chaos import check_exactly_once
from repro.triage import harness
from repro.workloads.profiles import CLOUD_A


@dataclasses.dataclass
class Probe:
    """What the benchmark reads after a workload's timed phase."""

    violations: list[str]
    tasks_submitted: int
    tasks_errored: int
    counters: dict[str, float]


@dataclasses.dataclass
class Finished:
    """A finished workload: its simulated results and a post-run probe.

    A workload made of independent runs marks where each but the last
    ended (``time.monotonic()``), so each run is timed on its own.
    """

    summary: dict[str, typing.Any]
    probe: typing.Callable[[], Probe]
    phase_ends: list[float] = dataclasses.field(default_factory=list)


# -- shared readers --------------------------------------------------------------


def _quantiles(values: list[float]) -> dict[str, float]:
    if not values:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0}
    ordered = sorted(values)
    last = len(ordered) - 1
    return {
        name: ordered[min(last, int(q * len(ordered)))]
        for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99))
    }


def _mean(values: typing.Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _server_counters(servers: list) -> dict[str, float]:
    """Control-plane, storage, bus, journal and inventory counters."""
    tasks = [task for server in servers for task in server.tasks.tasks]
    started = [task.queue_wait for task in tasks if task.started_at is not None]
    succeeded = sum(len(server.tasks.succeeded()) for server in servers)
    snapshots = [server.utilization_snapshot() for server in servers]
    counters = {
        "controlplane.tasks": len(tasks),
        "controlplane.task_retries": sum(max(0, task.attempts - 1) for task in tasks),
        "controlplane.task_success_ratio": succeeded / len(tasks) if tasks else 0.0,
        "controlplane.queue_wait_p50_sim_s": statistics.median(started) if started else 0.0,
        "controlplane.cpu_util_sim": _mean(s["cpu"] for s in snapshots),
        "controlplane.db_util_sim": _mean(s["db"] for s in snapshots),
        "controlplane.hostd_util_sim": _mean(s["hostd_mean"] for s in snapshots),
        "controlplane.lock_contention_sim": _mean(s["lock_wait_mean_s"] for s in snapshots),
        "storage.bytes_copied_gb": sum(
            server.copy_engine.total_bytes_written for server in servers
        ) / 1024**3,
        "recovery.journal_records": sum(len(server.journal.records) for server in servers),
        "datacenter.entities": sum(len(server.inventory) for server in servers),
    }
    topics = [
        stats
        for server in servers
        if server.bus is not None
        for stats in server.bus.topic_stats().values()
    ]
    published = sum(stats.published for stats in topics)
    delivered = sum(stats.delivered for stats in topics)
    redelivered = sum(stats.redelivered for stats in topics)
    waits = sum(stats.waits for stats in topics)
    counters.update(
        {
            "bus.published": published,
            "bus.delivered": delivered,
            "bus.redelivered": redelivered,
            "bus.dropped": sum(stats.dropped for stats in topics),
            "bus.delivery_ratio": (
                delivered / (published + redelivered) if published + redelivered else 0.0
            ),
            "bus.wait_mean_sim_s": (
                sum(stats.total_wait_s for stats in topics) / waits if waits else 0.0
            ),
        }
    )
    return counters


def _task_totals(servers: list) -> tuple[int, int]:
    submitted = sum(len(server.tasks.tasks) for server in servers)
    errored = sum(len(server.tasks.failed()) for server in servers)
    return submitted, errored


#: Counters every workload reports, zero where the layer does no work.
ZERO_COUNTERS: dict[str, float] = {
    "cloud.deploys": 0,
    "cloud.vm_retries": 0,
    "telemetry.scrapes": 0,
    "telemetry.alerts_fired": 0,
    "telemetry.bundles": 0,
    "tracing.spans_offered": 0,
    "tracing.spans_retained": 0,
    "tracing.retained_ratio": 0.0,
    "triage.verdicts": 0,
    "faults.windows": 0,
}


# -- clone_storm -----------------------------------------------------------------


def clone_storm(seed: int, scale: float = 1.0) -> Finished:
    """Closed loop: 32 workers keep linked clones in flight, attachments off."""
    total = max(8, round(2_500 * scale))
    rig = StormRig(seed=seed, hosts=16, datastores=4)
    stats = rig.closed_loop_storm(total=total, concurrency=32, linked=True)
    latencies = [task.latency for task in rig.server.tasks.succeeded()]
    summary = {
        "clones": total,
        "completed": stats["completed"],
        "makespan_s": stats["makespan_s"],
        "throughput_per_hour": stats["throughput_per_hour"],
        "latency": _quantiles(latencies),
        "bytes_written_gb": stats["bytes_written_gb"],
    }

    def probe() -> Probe:
        violations = []
        if stats["completed"] != total:
            violations.append(f"{stats['completed']} of {total} clones completed")
        try:
            rig.server.tasks.assert_accounted()
        except RuntimeError as error:
            violations.append(str(error))
        submitted, errored = _task_totals([rig.server])
        return Probe(violations, submitted, errored, {
            **ZERO_COUNTERS, **_server_counters([rig.server])
        })

    return Finished(summary, probe)


# -- cloud_day -------------------------------------------------------------------


#: Independent clouds in ``cloud_day``; each gets 1/CLOUDS of CLOUD_A's rate.
CLOUDS = 4


def _shared_rate_arrivals():
    arrivals = CLOUD_A.make_arrivals()
    arrivals.base_rate /= CLOUDS
    return arrivals


#: CLOUD_A (infrastructure, mix, lifetimes, daily cycle) at 1/CLOUDS of its
#: arrival rate: the clouds together see CLOUD_A's daily load, and each one
#: is timed on its own (about a second of host time per simulated day).
CLOUD_A_SHARE = dataclasses.replace(CLOUD_A, arrival_factory=_shared_rate_arrivals)


def cloud_day(seed: int, scale: float = 1.0) -> Finished:
    """Open loop: CLOUD_A's self-service load over one simulated day, in CLOUDS clouds."""
    results = []
    phase_ends = []
    for index in range(CLOUDS):
        if results:
            phase_ends.append(time.monotonic())
        result = Scenario(
            profile=CLOUD_A_SHARE, duration_s=24 * 3600.0 * scale, seed=derive_seed(seed, index)
        ).run()
        results.append((result, result.trace))
    summary = {
        f"cloud{index}": {
            "records": len(trace),
            "latency_by_type": result.latency_by_type(),
            "operation_mix": result.operation_mix(),
            "plane_breakdown": result.plane_breakdown(),
            "makespan_s": result.server.sim.now,
        }
        for index, (result, trace) in enumerate(results)
    }

    def probe() -> Probe:
        servers = [result.server for result, _ in results]
        violations = []
        for index, (result, trace) in enumerate(results):
            completed = sorted(task.task_id for task in result.server.tasks.completed())
            recorded = sorted(record.task_id for record in trace)
            if recorded != completed:
                violations.append(
                    f"cloud{index}: trace holds {len(recorded)} records for "
                    f"{len(completed)} completed tasks (or their task ids differ)"
                )
        submitted, errored = _task_totals(servers)
        directors = [result.driver.director.metrics for result, _ in results]
        counters = {
            **ZERO_COUNTERS,
            **_server_counters(servers),
            "cloud.deploys": sum(m.counter("deploy_requests").value for m in directors),
            "cloud.vm_retries": sum(m.counter("vm_retries").value for m in directors),
        }
        return Probe(violations, submitted, errored, counters)

    return Finished(summary, probe, phase_ends)


# -- chaos_observed --------------------------------------------------------------

#: Fault kinds injected, one triage run each. ``server_crash`` stays in even
#: though its results follow object addresses (see ``run.ADDRESS_ORDER_PARTS``).
CHAOS_KINDS = ("db_slowdown", "server_crash", "message_drop", "copy_flakiness")


def chaos_observed(seed: int, scale: float = 1.0) -> Finished:
    """Every attachment on: bus, journal, telemetry, tail sampling, triage, recorder."""
    rigs: list = []

    class RecordingRig(StormRig):
        """The harness's rig, kept so its public state can be read afterwards."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            rigs.append(self)

    duration = 300.0 * scale
    points = []
    phase_ends = []
    harness.StormRig = RecordingRig
    try:
        for index, kind in enumerate(CHAOS_KINDS):
            if points:
                phase_ends.append(time.monotonic())
            points.append(
                harness.run_triage_point(
                    derive_seed(seed, index),
                    kind,
                    duration_s=duration,
                    traced=True,
                    sample_budget=2048,
                    recorder=True,
                )
            )
    finally:
        harness.StormRig = StormRig
    summary = {
        point.kind: {
            "completed": point.completed,
            "alerts": point.alerts,
            "scrapes": point.scrapes,
            "verdicts": [verdict.named_kind for verdict in point.verdicts],
            "top1_correct": point.report.top1_correct,
            "matched_verdicts": point.report.matched_verdicts,
            "bundles": len(point.bundles),
            "retention": point.retention,
            "makespan_s": rig.sim.now,
        }
        for point, rig in zip(points, rigs)
    }

    def probe() -> Probe:
        servers = [rig.server for rig in rigs]
        violations = []
        for kind, server in zip(CHAOS_KINDS, servers):
            try:
                server.tasks.assert_accounted()
            except RuntimeError as error:
                violations.append(f"{kind}: {error}")
            violations.extend(f"{kind}: {v}" for v in check_exactly_once(server))
        submitted, errored = _task_totals(servers)
        retention = [rig.tracer.retention_summary() for rig in rigs]
        offered = sum(r["offered_spans"] for r in retention)
        retained = sum(r["retained_spans"] for r in retention)
        counters = {
            **_server_counters(servers),
            "cloud.deploys": sum(
                rig.telemetry.counter("director_deploys_total").value for rig in rigs
            ),
            "cloud.vm_retries": sum(
                rig.telemetry.counter("director_vm_retries_total").value for rig in rigs
            ),
            "telemetry.scrapes": sum(point.scrapes for point in points),
            "telemetry.alerts_fired": sum(point.alerts for point in points),
            "telemetry.bundles": sum(len(point.bundles) for point in points),
            "tracing.spans_offered": offered,
            "tracing.spans_retained": retained,
            "tracing.retained_ratio": retained / offered if offered else 0.0,
            "triage.verdicts": sum(len(point.verdicts) for point in points),
            "faults.windows": sum(len(point.manifest) for point in points),
        }
        return Probe(violations, submitted, errored, counters)

    return Finished(summary, probe, phase_ends)


# -- hyperscale_fleet ------------------------------------------------------------


def hyperscale_fleet(seed: int, scale: float = 1.0) -> Finished:
    """A deep pending queue: one fleet cell of raw kernel timers, no control plane."""
    vms = max(1_000, round(150_000 * scale))
    (point,) = hyperscale_sweep(seed=seed, parallel=1, fleets=(vms,), shard_counts=(1,))
    summary = {
        key: point[key]
        for key in ("vms", "deploys", "expiries", "peak_pending", "makespan_s", "events")
    }

    def probe() -> Probe:
        violations = []
        if not point["deploys"] == point["expiries"] == vms:
            violations.append(
                f"deploys {point['deploys']} / expiries {point['expiries']} != {vms} VMs"
            )
        return Probe(violations, 0, 0, {
            **ZERO_COUNTERS, **_server_counters([])
        })

    return Finished(summary, probe)


WORKLOADS: dict[str, typing.Callable[[int, float], Finished]] = {
    "clone_storm": clone_storm,
    "cloud_day": cloud_day,
    "chaos_observed": chaos_observed,
    "hyperscale_fleet": hyperscale_fleet,
}
