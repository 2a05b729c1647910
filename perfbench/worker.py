"""One benchmark iteration in a fresh interpreter; prints one JSON line.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/worker.py --workload clone_storm --seed 0 --started <t> [--traced]

``--started`` is the ``time.monotonic()`` reading the parent took just
before starting this process; set-up time runs from there to the first
``Simulator.run`` call (the first simulated event), so it covers
interpreter start, importing ``repro`` and building the rig. The timed
phase runs from that first event to the end of the workload's own result
analysis; a workload of several independent runs splits it into one
phase per run.

With ``--traced`` a deterministic profiler (cProfile) runs around the
workload call, and the line also carries host self time and call counts
grouped by layer: the package under ``src/repro/`` that owns the code,
with ``controlplane/bus.py`` as layer ``bus`` and
``controlplane/recovery.py`` as layer ``recovery``. Code outside
``repro`` (the standard library, built-ins, this benchmark) is ``other``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pathlib
import pstats
import resource
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Every layer the traced run reports, in report order.
LAYERS = (
    "sim",
    "controlplane",
    "bus",
    "recovery",
    "operations",
    "storage",
    "datacenter",
    "cloud",
    "workloads",
    "analysis",
    "telemetry",
    "tracing",
    "triage",
    "faults",
    "traces",
    "core",
    "other",
)

#: Kernel drain-loop functions; their calls into event callbacks are dispatches.
_DRAIN = {"_run_heap", "_run_calendar", "step"}


def layer_of(filename: str, repro_dir: pathlib.Path) -> str:
    """The layer that owns the code in ``filename`` (``repro_dir`` is the package)."""
    try:
        parts = pathlib.Path(filename).resolve().relative_to(repro_dir).parts
    except ValueError:
        return "other"
    if len(parts) == 1:  # top-level modules (cli, results) sit with core
        return "core"
    if parts[:2] == ("controlplane", "bus.py"):
        return "bus"
    if parts[:2] == ("controlplane", "recovery.py"):
        return "recovery"
    return parts[0] if parts[0] in LAYERS else "other"


def split_by_layer(profile: cProfile.Profile, repro_dir: pathlib.Path) -> tuple[dict, int]:
    """(per-layer self seconds and calls, events dispatched) from a profile."""
    kernel = str(repro_dir / "sim" / "kernel.py")
    stats = pstats.Stats(profile).stats
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    owners: dict[str, str] = {}
    events = 0
    for (filename, _line, function), (_cc, calls, self_s, _cum, callers) in stats.items():
        if filename not in owners:
            owners[filename] = "other" if filename == "~" else layer_of(filename, repro_dir)
        layer = layers[owners[filename]]
        layer["self_s"] += self_s
        layer["calls"] += calls
        if function == "_run_callbacks" or filename == kernel:
            events += sum(
                caller_stats[1]
                for (caller_file, _, caller), caller_stats in callers.items()
                if caller in _DRAIN and caller_file == kernel
            )
    return layers, events


def digest_parts(summary: dict) -> dict[str, str]:
    """A short digest of each top-level part of the simulated results."""
    return {
        key: hashlib.sha256(
            json.dumps(value, sort_keys=True, default=repr).encode()
        ).hexdigest()[:16]
        for key, value in sorted(summary.items())
    }


def main() -> int:
    sys.path.insert(0, str(SRC))
    import repro
    import workloads  # imports the simulator: part of set-up
    from repro.sim.kernel import Simulator

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    first_event: list[float] = []
    original_run = Simulator.run

    def first_run(self, until=None):
        first_event.append(time.monotonic())
        Simulator.run = original_run
        return original_run(self, until)

    Simulator.run = first_run
    profile = cProfile.Profile() if args.traced else None
    cpu_start = time.process_time()
    call_start = time.monotonic()
    if profile is not None:
        profile.enable()
    finished = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    if profile is not None:
        profile.disable()
    ended = time.monotonic()
    cpu_s = time.process_time() - cpu_start
    if not first_event:
        raise RuntimeError(f"{args.workload} never ran the simulator")

    probe = finished.probe()
    parts = digest_parts(finished.summary)
    record = {
        "setup_s": first_event[0] - args.started,
        "wall_s": ended - first_event[0],
        "phases_s": [
            end - start
            for start, end in zip(
                [first_event[0], *finished.phase_ends], [*finished.phase_ends, ended]
            )
        ],
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_digest": hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16],
        "digest_parts": parts,
        "violations": probe.violations,
        "tasks_submitted": probe.tasks_submitted,
        "tasks_errored": probe.tasks_errored,
        "counters": probe.counters,
    }
    if profile is not None:
        layers, events = split_by_layer(profile, pathlib.Path(repro.__file__).resolve().parent)
        record.update(layers=layers, sim_events=events, profiled_s=ended - call_start)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
