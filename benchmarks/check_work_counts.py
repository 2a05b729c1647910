#!/usr/bin/env python
"""Gate performance on exact work counts: events dispatched and calls per layer.

Runs the repository benchmark's profiled iteration on small sizes::

    python3 perfbench/run.py --workload W --seed 0 --scale 0.2 --seconds 1 --trace 1

for ``clone_storm``, ``cloud_day`` and ``hyperscale_fleet``, and compares
``sim.events`` and every ``<layer>.calls`` with the committed
``benchmarks/work_counts.json``. These counts are exact: a seeded run
repeats them call for call, so the gate has no noise. Any increase fails;
a decrease is printed as a win (commit it with ``--update``).

``chaos_observed`` is left out: its crash-victim order still follows
object addresses (ROADMAP item 1), so its counts are not yet repeatable.

Builtin call counts differ between interpreter versions, so the counts
are checked only on the interpreter that recorded them (Python 3.11).

Usage::

    python benchmarks/check_work_counts.py            # check
    python benchmarks/check_work_counts.py --update   # re-record after a change
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
COUNTS = ROOT / "benchmarks" / "work_counts.json"
WORKLOADS = ("clone_storm", "cloud_day", "hyperscale_fleet")
ARGS = ("--seed", "0", "--scale", "0.2", "--seconds", "1", "--trace", "1")


def measure(workload: str) -> dict[str, int]:
    """``sim.events`` and every ``<layer>.calls`` of one profiled run."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, *ARGS]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: int(metric["value"])
        for name, metric in metrics.items()
        if name == "sim.events" or name.endswith(".calls")
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="re-record the counts")
    args = parser.parse_args()
    python = f"{sys.version_info.major}.{sys.version_info.minor}"
    measured = {workload: measure(workload) for workload in WORKLOADS}

    if args.update:
        COUNTS.write_text(
            json.dumps(
                {
                    "command": "python3 perfbench/run.py --workload W " + " ".join(ARGS),
                    "python": python,
                    "workloads": measured,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"recorded work counts of {', '.join(WORKLOADS)} in {COUNTS.name}")
        return 0

    committed = json.loads(COUNTS.read_text())
    if committed["python"] != python:
        print(
            f"FAIL: the counts were recorded on Python {committed['python']}; "
            f"this is {python}, whose builtin call counts differ",
            file=sys.stderr,
        )
        return 2
    increases = []
    for workload in WORKLOADS:
        before = committed["workloads"][workload]
        for name, now in measured[workload].items():
            was = before.get(name, 0)
            if now == was:
                continue
            change = f"{workload:<17} {name:<20} {was:>9} -> {now:>9}"
            if now > was:
                increases.append(change)
                print(f"MORE {change}")
            else:
                print(f"win  {change}")
    if increases:
        print(
            f"\nFAIL: {len(increases)} work count(s) rose; if the extra work is "
            f"intended, re-record with --update and give the reason in CHANGES.md",
            file=sys.stderr,
        )
        return 1
    print(f"\nok: no work count rose on {', '.join(WORKLOADS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
