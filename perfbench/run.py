"""The repository benchmark: simulator host time, set-up and memory per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clone_storm --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each iteration runs one workload in a fresh interpreter (``worker.py``),
one at a time, with no worker pool. Iterations repeat, all with the same
seed, until the next one would overrun ``--seconds`` (at least
``MIN_ITERATIONS``). After each, ``reference.py`` times a fixed
standard-library workload, so that ``wall_rel`` can express the
simulator's time relative to the host's current speed. End-to-end
metrics come from the untraced iterations. ``--trace 1`` adds one
profiled iteration and reports the per-layer split instead. Every iteration's invariants are checked, and
every iteration must produce the same ``sim_digest``: a digest that
differs names the parts of the simulated results that moved.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are for people. See ``perfbench/README.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from worker import LAYERS

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKER = pathlib.Path(__file__).resolve().parent / "worker.py"
REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.py"

WORKLOADS = ("clone_storm", "cloud_day", "chaos_observed", "hyperscale_fleet")
MIN_ITERATIONS = 3
#: Host seconds after which a workload's run stops, hung or not.
DEADLINE_S = 170.0

#: End-to-end metrics (untraced iterations) and their units.
END_TO_END = {
    "wall_rel": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "task_ok_ratio": "ratio",
}

#: Per-layer counters read from public state, and their units.
COUNTERS = {
    "controlplane.tasks": "count",
    "controlplane.task_retries": "count",
    "controlplane.task_success_ratio": "ratio",
    "controlplane.queue_wait_p50_sim_s": "sim_s",
    "controlplane.cpu_util_sim": "ratio",
    "controlplane.db_util_sim": "ratio",
    "controlplane.hostd_util_sim": "ratio",
    "controlplane.lock_contention_sim": "sim_s",
    "storage.bytes_copied_gb": "GB",
    "bus.published": "count",
    "bus.delivered": "count",
    "bus.redelivered": "count",
    "bus.dropped": "count",
    "bus.delivery_ratio": "ratio",
    "bus.wait_mean_sim_s": "sim_s",
    "recovery.journal_records": "count",
    "datacenter.entities": "count",
    "cloud.deploys": "count",
    "cloud.vm_retries": "count",
    "telemetry.scrapes": "count",
    "telemetry.alerts_fired": "count",
    "telemetry.bundles": "count",
    "tracing.spans_offered": "count",
    "tracing.spans_retained": "count",
    "tracing.retained_ratio": "ratio",
    "triage.verdicts": "count",
    "faults.windows": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units["sim.events"] = "count"
    units["sim.ns_per_event"] = "ns"
    units.update(COUNTERS)
    units["trace_overhead"] = "ratio"
    return units


def run_iteration(
    workload: str, seed: int, scale: float, traced: bool, timeout_s: float
) -> dict:
    """One workload iteration in a fresh interpreter; its record, or an ``error``."""
    # A fixed hash seed keeps dict and set layouts, and so timings, alike
    # across iterations; the workloads run on the default queue backend,
    # serially.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("REPRO_SIM_QUEUE", None)
    env.pop("REPRO_BENCH_PARALLEL", None)
    command = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale),
    ]
    if traced:
        command.append("--traced")
    started = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--started", repr(started)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, timeout_s),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout_s:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or [f"exit code {done.returncode}"]
        return {"error": tail[0]}
    return json.loads(lines[-1])


def reference_seconds() -> float:
    """One pass of ``reference.py`` in a fresh interpreter, in host seconds."""
    done = subprocess.run(
        [sys.executable, str(REFERENCE)], capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout)


#: Digest parts known to depend on object addresses. ``ManagementServer``
#: picks crash victims by iterating a ``set`` of processes, so the
#: ``server_crash`` run's results follow memory layout: they can differ
#: between two interpreters given the same seed (the profiled iteration
#: shows it). Such a difference is reported as that defect, not as a
#: failed iteration; a difference in any other part fails the iteration.
ADDRESS_ORDER_PARTS = frozenset({"server_crash"})


def check(records: list[dict]) -> tuple[list[str], list[str]]:
    """(why iterations failed, known defects seen); marks failed ones ``failed``.

    An iteration fails if it raised, broke an invariant, or produced a
    ``sim_digest`` other than the first successful iteration's in a part
    outside :data:`ADDRESS_ORDER_PARTS`.
    """
    problems = []
    defects = []
    reference = next((r for r in records if "error" not in r), None)
    for index, record in enumerate(records):
        if "error" in record:
            problems.append(f"iteration {index}: raised: {record['error']}")
        elif record["violations"]:
            problems.append(f"iteration {index}: invariant broken: {record['violations'][:3]}")
        elif record["sim_digest"] != reference["sim_digest"]:
            moved = sorted(
                part
                for part, digest in record["digest_parts"].items()
                if reference["digest_parts"].get(part) != digest
            )
            message = (
                f"iteration {index}: sim_digest {record['sim_digest']} != "
                f"{reference['sim_digest']} for the same seed; parts that moved: {moved}"
            )
            if ADDRESS_ORDER_PARTS.issuperset(moved):
                defects.append(f"{message} (crash victims follow object addresses)")
                continue
            problems.append(message)
        else:
            continue
        record["failed"] = True
    return problems, defects


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float):
    """Run one workload for ``seconds``; (attempted, failed, metrics, report lines)."""
    begin = time.monotonic()

    def iterate(traced: bool) -> dict:
        return run_iteration(
            workload, seed, scale, traced, DEADLINE_S - (time.monotonic() - begin)
        )

    records = []
    reference = []
    while True:
        records.append(iterate(traced=False))
        reference.append(reference_seconds())
        elapsed = time.monotonic() - begin
        if "error" in records[-1]:
            break
        if len(records) >= MIN_ITERATIONS and elapsed * (1 + 1 / len(records)) > seconds:
            break
    traced = iterate(traced=True) if trace else None
    everything = records + ([traced] if traced is not None else [])
    problems, defects = check(everything)
    good = [record for record in records if not record.get("failed")]

    lines = [f"{workload} seed={seed}: {len(everything)} iterations"]
    lines += [f"  DEFECT {defect}" for defect in defects]
    metrics: dict[str, dict] = {}
    if good:
        values, report = summarize(good, min(reference), len(problems) / len(everything))
        lines += report
        if not trace:
            metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
        elif not traced.get("failed"):
            metrics = traced_metrics(traced, values["wall_s"])
            report, share = layer_report(traced)
            lines += report
            if not 0.95 <= share <= 1.02:
                problems.append(f"layer self times sum to {share:.1%} of traced wall time")
    lines += [f"  FAILED {problem}" for problem in problems]
    return len(everything), len(problems), metrics, lines


def summarize(good: list[dict], ref_s: float, failed_ratio: float) -> tuple[dict, list[str]]:
    """End-to-end and reported values from the good untraced iterations, and report lines.

    ``ref_s`` is the fastest pass of the reference workload in the run.
    """
    first = good[0]
    submitted = first["tasks_submitted"]
    error_ratio = first["tasks_errored"] / submitted if submitted else 0.0
    # Interference from other tenants only ever slows a run down, and comes
    # in bursts of up to tens of seconds: the fastest iteration of each
    # phase is the steadiest estimate of the program's own cost. Over
    # minutes the host's speed also drifts; the reference workload, timed
    # between the same iterations, cancels that drift in ``wall_rel``.
    wall_s = sum(min(phases) for phases in zip(*(r["phases_s"] for r in good)))
    values = {
        "wall_s": wall_s,
        "ref_s": ref_s,
        "wall_rel": wall_s / ref_s,
        "setup_s": min(r["setup_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "task_ok_ratio": 1.0 - error_ratio,
        "task_error_ratio": error_ratio,
        "failed_ratio": failed_ratio,
    }
    units = dict(END_TO_END, wall_s="s", ref_s="s", task_error_ratio="ratio", failed_ratio="ratio")
    return values, [
        "  " + "  ".join(f"{name}={value:.6g} {units[name]}" for name, value in values.items()),
        f"  sim_digest={first['sim_digest']}  cpu_s={min(r['cpu_s'] for r in good):.6g} s"
        f"  wall_s per iteration: {[round(r['wall_s'], 3) for r in good]}",
    ]


def layer_report(traced: dict) -> tuple[list[str], float]:
    """The per-layer table, and the share of profiled time the layers account for."""
    attributed = sum(traced["layers"][layer]["self_s"] for layer in LAYERS)
    share = attributed / traced["profiled_s"]
    lines = [f"  traced: layers attribute {share:.1%} of {traced['profiled_s']:.3f} s profiled"]
    for layer in LAYERS:
        split = traced["layers"][layer]
        lines.append(
            f"  {layer:<13} self {split['self_s']:9.4f} s ({split['self_s'] / attributed:6.1%})"
            f"  calls {split['calls']:>10}"
        )
    return lines, share


def traced_metrics(traced: dict, untraced_wall_s: float) -> dict[str, dict]:
    """Per-layer metrics from one traced record and the untraced ``wall_s``."""
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = traced["layers"][layer]["self_s"]
        values[f"{layer}.calls"] = traced["layers"][layer]["calls"]
    values["sim.events"] = traced["sim_events"]
    values["sim.ns_per_event"] = (
        untraced_wall_s / traced["sim_events"] * 1e9 if traced["sim_events"] else 0.0
    )
    values.update({name: traced["counters"][name] for name in COUNTERS})
    values["trace_overhead"] = traced["wall_s"] / untraced_wall_s
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size factor (1.0 is the benchmark; the self-test uses less)",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in selected:
        tried, lost, found, lines = measure(
            workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
        print("\n".join(lines), flush=True)
        attempted += tried
        failed += lost
        prefix = f"{workload}." if len(selected) > 1 else ""
        metrics.update({prefix + name: value for name, value in found.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    raise SystemExit(main())
