#!/usr/bin/env python
"""Pin the committed exhibit results: re-render and diff byte-for-byte.

Re-runs a slice of the exhibit registry at full size and seed 0 (the
seed the committed results use), and fails if any render differs from
its committed ``benchmarks/results/<id>.txt`` by a single byte. A
performance change that claims "simulated output unchanged" is held to
this check.

The slice covers the open-loop cloud day (R-F1, R-F2, R-F10), the
per-plane breakdown (R-F8), the setup table and operation mix (R-T1,
R-T2), the ablations (R-T3) and the restart storm (R-X1); together they
render in about 7 s on a 2-core x86 host (Python 3.11).

The committed results were generated on Python 3.11, and float sums may
differ across interpreter versions, so run this on 3.11.

Usage::

    PYTHONPATH=src python benchmarks/check_committed_results.py
"""

from __future__ import annotations

import difflib
import pathlib
import sys

EXPERIMENT_IDS = ("R-F1", "R-F2", "R-F8", "R-F10", "R-T1", "R-T2", "R-T3", "R-X1")

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def _render(exp_id: str) -> str:
    from repro.core.experiments import run_experiment

    # benchmarks/conftest.py persists exactly this text, at the default seed.
    return run_experiment(exp_id, seed=0, quick=False).render() + "\n"


def main() -> int:
    failures = []
    for exp_id in EXPERIMENT_IDS:
        committed = (RESULTS_DIR / f"{exp_id}.txt").read_text()
        rendered = _render(exp_id)
        if rendered == committed:
            print(f"{exp_id:<8} OK   matches results/{exp_id}.txt")
            continue
        failures.append(exp_id)
        print(f"{exp_id:<8} FAIL differs from results/{exp_id}.txt:")
        diff = difflib.unified_diff(
            committed.splitlines(), rendered.splitlines(),
            fromfile=f"results/{exp_id}.txt", tofile=f"{exp_id} rendered",
            lineterm="",
        )
        for line in diff:
            print(f"    {line}")

    if failures:
        print(
            f"\nFAIL: {len(failures)} exhibit(s) differ from the committed "
            f"results: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(f"\nok: {len(EXPERIMENT_IDS)} exhibits match the committed results")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
