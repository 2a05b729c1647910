"""Integration tests: real workloads produce coherent span trees."""

import pytest

from repro.analysis.spans import (
    critical_path,
    critical_path_length,
    phase_attribution,
    queueing_service_split,
)
from repro.controlplane.resilience import RetryPolicy
from repro.controlplane.task_manager import TaskManager
from repro.core.experiments import StormRig
from repro.faults import TransientError
from repro.sim import RandomStreams, Simulator
from repro.tracing import Tracer
from repro.traces.records import TraceRecord


def traced_storm(linked=True, total=12, concurrency=6, seed=0):
    rig = StormRig(seed=seed, traced=True)
    rig.closed_loop_storm(total=total, concurrency=concurrency, linked=linked)
    return rig


class TestTracedStorm:
    def test_every_span_finishes(self):
        rig = traced_storm()
        assert rig.tracer.spans
        assert rig.tracer.open_spans() == []

    def test_attribution_sums_to_root_duration(self):
        rig = traced_storm()
        for task in rig.server.tasks.succeeded():
            attribution = phase_attribution(task.span)
            assert sum(attribution.values()) == pytest.approx(task.span.duration)

    def test_critical_path_equals_root_duration(self):
        rig = traced_storm(linked=False, total=8, concurrency=4)
        for task in rig.server.tasks.succeeded():
            segments = critical_path(task.span)
            assert critical_path_length(segments) == pytest.approx(task.span.duration)

    def test_root_span_covers_task_service(self):
        rig = traced_storm()
        for task in rig.server.tasks.succeeded():
            # The root span opens at submit and closes after the completion
            # write, so it brackets the task's own latency accounting.
            assert task.span.start == pytest.approx(task.submitted_at)
            assert task.span.duration >= task.latency - 1e-9

    def test_trace_record_consistency_assertion_passes(self):
        rig = traced_storm(linked=False, total=8, concurrency=4)
        for task in rig.server.tasks.succeeded():
            record = TraceRecord.from_task(task)
            assert record.control_s > 0.0
            assert record.data_s > 0.0  # full clones move bytes

    def test_contention_produces_wait_spans(self):
        rig = traced_storm(total=24, concurrency=24)
        waits = [
            span
            for span in rig.tracer.spans
            if span.tags.get("wait") and span.duration > 0.0
        ]
        assert waits
        assert all(span.phase in ("queue", "copy", "retry", "admission") for span in waits)
        split_total = {"queueing": 0.0, "service": 0.0}
        for task in rig.server.tasks.succeeded():
            for bucket, seconds in queueing_service_split(task.span).items():
                split_total[bucket] += seconds
        assert split_total["queueing"] > 0.0

    def test_untraced_rig_records_nothing(self):
        rig = StormRig(seed=0)
        rig.closed_loop_storm(total=4, concurrency=2, linked=True)
        assert rig.tracer.spans == ()
        assert all(task.span.is_null for task in rig.server.tasks.succeeded())

    def test_deterministic_at_fixed_seed(self):
        first = traced_storm(seed=3)
        second = traced_storm(seed=3)
        assert len(first.tracer.spans) == len(second.tracer.spans)
        assert [s.name for s in first.tracer.spans] == [s.name for s in second.tracer.spans]
        assert [s.end for s in first.tracer.spans] == [s.end for s in second.tracer.spans]


class TestRetrySpans:
    def _manager(self, sim):
        from repro.controlplane.costs import DEFAULT_COSTS
        from repro.controlplane.database import DatabaseModel

        streams = RandomStreams(seed=7)
        database = DatabaseModel(
            sim, DEFAULT_COSTS, connections=4, rng=streams.stream("db")
        )
        tracer = Tracer(sim)
        manager = TaskManager(
            sim,
            database,
            max_inflight=4,
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=1.0, jitter=0.0),
            tracer=tracer,
        )
        return manager, tracer

    def test_transient_failure_yields_attempt_and_backoff_spans(self):
        sim = Simulator()
        manager, tracer = self._manager(sim)
        failures = [TransientError("agent hiccup")]

        def body(task):
            yield sim.timeout(0.5)
            if failures:
                raise failures.pop()

        def proc():
            yield from manager.run_task("clone", body)

        sim.run(until=sim.spawn(proc()))
        (task,) = manager.tasks
        assert task.attempts == 2
        names = [span.name for span in tracer.subtree(task.span)]
        assert "attempt-1" in names and "attempt-2" in names
        assert "task.backoff" in names
        by_name = {span.name: span for span in tracer.subtree(task.span)}
        assert by_name["attempt-1"].tags["error"] == "TransientError"
        assert by_name["attempt-2"].ok
        assert by_name["task.backoff"].phase == "retry"
        assert by_name["task.backoff"].duration == pytest.approx(1.0)
        assert task.span.tags["attempts"] == 2
        assert tracer.open_spans() == []

    def test_terminal_failure_marks_root_span(self):
        sim = Simulator()
        manager, tracer = self._manager(sim)

        def body(task):
            yield sim.timeout(0.1)
            raise RuntimeError("not retryable")

        def proc():
            try:
                yield from manager.run_task("clone", body)
            except RuntimeError:
                pass

        sim.run(until=sim.spawn(proc()))
        (task,) = manager.tasks
        assert not task.span.ok
        assert task.span.tags["error"] == "RuntimeError"
        assert task.span.finished
        assert tracer.open_spans() == []


class TestDirectorSpans:
    def test_deploy_request_parents_task_spans(self):
        from repro.cloud.catalog import Catalog, CatalogItem
        from repro.cloud.director import CloudDirector, DeployRequest
        from repro.cloud.tenancy import Organization
        from repro.datacenter.templates import MEDIUM_LINUX

        rig = StormRig(seed=0, traced=True)
        catalog = Catalog("demo")
        item = catalog.add(CatalogItem(name="web", template_name=MEDIUM_LINUX.name))
        org = Organization("org", quota_vms=100, quota_storage_gb=1e6)
        director = CloudDirector(rig.server, rig.cluster, rig.library, catalog)

        def proc():
            yield from director.deploy(
                DeployRequest(org=org, item=item, vm_count=2, vapp_name="app")
            )

        rig.sim.run(until=rig.sim.spawn(proc()))
        roots = [span for span in rig.tracer.roots() if span.name.startswith("deploy.")]
        assert len(roots) == 1
        request_span = roots[0]
        assert request_span.finished and request_span.ok
        vm_spans = rig.tracer.children(request_span)
        assert sorted(span.name for span in vm_spans) == ["vm-0", "vm-1"]
        for vm_span in vm_spans:
            task_spans = [
                child
                for child in rig.tracer.children(vm_span)
                if child.name.startswith("task.")
            ]
            assert task_spans
            # The whole tree shares the request's trace id.
            for task_span in task_spans:
                assert task_span.context.trace_id == request_span.context.trace_id
        assert rig.tracer.open_spans() == []


def test_untraced_linked_storm_makes_no_null_span_calls(monkeypatch):
    """Tracing off costs nothing: instrumentation guards on ``is_null`` /
    ``tracer.enabled`` instead of calling the inert span's methods."""
    from repro.tracing import NULL_SPAN, NULL_TRACER

    calls: dict[str, int] = {}

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(self, *args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("child", "finish", "annotate"):
        spy(type(NULL_SPAN), name)
    for name in ("start_span", "start_trace"):
        spy(type(NULL_TRACER), name)
    rig = StormRig(seed=0, hosts=4, datastores=2)
    stats = rig.closed_loop_storm(total=24, concurrency=8, linked=True)
    assert stats["completed"] == 24
    assert calls == {}
    # The spies do count: one traced-off call is seen.
    NULL_SPAN.child("probe").finish()
    assert calls == {"child": 1, "finish": 1}
