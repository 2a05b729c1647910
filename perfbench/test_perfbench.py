"""The benchmark's own test: every workload at a tiny size, and the output check.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.02"


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def run_all(trace: int) -> tuple[str, dict]:
    done = bench("--workload", "all", "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--scale", TINY)
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return run_all(trace=0)


@pytest.fixture(scope="module")
def traced():
    return run_all(trace=1)


@pytest.mark.parametrize("mode, listed", [("untraced", "end_to_end"), ("traced", "per_layer")])
def test_every_listed_metric_is_printed_with_its_unit(request, mode, listed):
    _, result = request.getfixturevalue(mode)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {
        f"{workload['name']}.{metric['name']}": metric["unit"]
        for workload in SPEC["workloads"]
        for metric in SPEC[listed]
    }
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == expected


def test_untraced_run_prints_the_end_to_end_figures(untraced):
    stdout, _ = untraced
    figures = (r"  wall_s=\S+ s  ref_s=\S+ s  wall_rel=\S+ ref  setup_s=\S+ s"
               r"  peak_rss_mb=\S+ MB  task_ok_ratio=\S+ ratio  task_error_ratio=\S+ ratio"
               r"  failed_ratio=0 ratio")
    for workload in run.WORKLOADS:
        assert re.search(rf"^{workload} seed=1: .*\n{figures}$", stdout, re.MULTILINE), workload


def test_attachment_counters_are_zero_when_off_and_nonzero_when_on(traced):
    _, result = traced
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    for name in ("bus.published", "bus.delivered", "bus.self_s", "recovery.journal_records",
                 "triage.verdicts", "triage.calls", "tracing.spans_offered",
                 "tracing.spans_retained"):
        assert metrics[f"clone_storm.{name}"] == 0, name
    for name in ("bus.published", "bus.delivered", "bus.self_s", "recovery.journal_records",
                 "recovery.self_s", "triage.calls", "tracing.spans_offered", "tracing.spans_retained",
                 "telemetry.scrapes", "faults.windows"):
        assert metrics[f"chaos_observed.{name}"] > 0, name
    for workload in run.WORKLOADS:
        assert metrics[f"{workload}.sim.events"] > 0
        assert metrics[f"{workload}.trace_overhead"] > 1.0


def _record(digest: str, parts: dict[str, str], violations=()) -> dict:
    return {"sim_digest": digest, "digest_parts": dict(parts), "violations": list(violations)}


def test_check_rejects_a_tampered_digest():
    parts = {"latency": "aaaa", "makespan_s": "bbbb"}
    records = [_record("d1", parts), _record("d1", parts),
               _record("d2", dict(parts, makespan_s="cccc"))]
    problems, defects = run.check(records)
    assert [r.get("failed", False) for r in records] == [False, False, True]
    assert "makespan_s" in problems[0] and not defects


def test_check_reports_address_order_parts_as_the_known_defect():
    parts = {"db_slowdown": "aaaa", "server_crash": "bbbb"}
    records = [_record("d1", parts), _record("d2", dict(parts, server_crash="cccc"))]
    problems, defects = run.check(records)
    assert not problems and not any(r.get("failed") for r in records)
    assert "server_crash" in defects[0]


def test_check_rejects_a_broken_invariant_and_an_error():
    parts = {"latency": "aaaa"}
    records = [_record("d1", parts), _record("d1", parts, ["task-3 stranded"]), {"error": "boom"}]
    problems, _ = run.check(records)
    assert [r.get("failed", False) for r in records] == [False, True, True]
    assert len(problems) == 2


def test_probe_sees_a_stranded_task(monkeypatch):
    import workloads
    from repro.controlplane.task_manager import TaskState

    original = workloads.StormRig.closed_loop_storm

    def strand_one(rig, *args, **kwargs):
        stats = original(rig, *args, **kwargs)
        rig.server.tasks.tasks[0].state = TaskState.RUNNING
        return stats

    assert workloads.clone_storm(seed=0, scale=0.002).probe().violations == []
    monkeypatch.setattr(workloads.StormRig, "closed_loop_storm", strand_one)
    violations = workloads.clone_storm(seed=0, scale=0.002).probe().violations
    assert any("unaccounted" in v for v in violations)


def test_probe_sees_a_lost_expiry(monkeypatch):
    import workloads

    def lose_one(**kwargs):
        (point,) = original(**kwargs)
        return [dict(point, expiries=point["expiries"] - 1)]

    original = workloads.hyperscale_sweep
    monkeypatch.setattr(workloads, "hyperscale_sweep", lose_one)
    assert workloads.hyperscale_fleet(seed=0, scale=0.001).probe().violations


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "clone_storm", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
