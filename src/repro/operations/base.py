"""Operation base class, taxonomy, and phase-attribution helper."""

from __future__ import annotations

import enum
import typing

from repro.tracing.span import PHASE_TASK, Span

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.server import ManagementServer
    from repro.controlplane.task_manager import Task

CONTROL = "control"
DATA = "data"


class OperationType(enum.Enum):
    """Taxonomy used by workload mixes and the characterization pipeline."""

    CLONE_FULL = "clone_full"
    CLONE_LINKED = "clone_linked"
    DEPLOY = "deploy"
    POWER_ON = "power_on"
    POWER_OFF = "power_off"
    RECONFIGURE = "reconfigure"
    SNAPSHOT_CREATE = "snapshot_create"
    SNAPSHOT_DELETE = "snapshot_delete"
    MIGRATE = "migrate"
    STORAGE_MIGRATE = "storage_migrate"
    DESTROY = "destroy"
    RESCAN_DATASTORE = "rescan_datastore"
    ADD_HOST = "add_host"
    ADD_DATASTORE = "add_datastore"
    NETWORK_RECONFIG = "network_reconfig"
    ENTER_MAINTENANCE = "enter_maintenance"
    EXIT_MAINTENANCE = "exit_maintenance"
    EVACUATE_DATASTORE = "evacuate_datastore"

    @classmethod
    def provisioning(cls) -> set["OperationType"]:
        """Operations that create or retire capacity (cloud churn)."""
        return {cls.CLONE_FULL, cls.CLONE_LINKED, cls.DEPLOY, cls.DESTROY}

    @classmethod
    def reconfiguration(cls) -> set["OperationType"]:
        """Infrastructure reconfiguration — the 'previously infrequent' ops."""
        return {
            cls.RESCAN_DATASTORE,
            cls.ADD_HOST,
            cls.ADD_DATASTORE,
            cls.NETWORK_RECONFIG,
            cls.ENTER_MAINTENANCE,
            cls.EXIT_MAINTENANCE,
            cls.EVACUATE_DATASTORE,
        }


class OperationError(Exception):
    """An operation failed for a modeled reason (not a simulator bug)."""


def phase(
    task: "Task",
    name: str,
    plane: str,
    sim_now: typing.Callable[[], float],
    body: typing.Generator | typing.Callable[[Span], typing.Generator],
    tag: str = PHASE_TASK,
) -> typing.Generator[typing.Any, typing.Any, typing.Any]:
    """Run a process-style ``body`` and attribute its wall time to a phase.

    Usage inside an operation::

        result = yield from phase(task, "validate", CONTROL, lambda: server.sim.now,
                                  server.cpu_work(costs.api_validate_s))

    When tracing is on (``task.span`` is real) the phase also opens a
    child span tagged ``tag`` and stamped with the plane. ``body`` may be
    a callable taking that span — components accept it to hang their own
    sub-spans (pool waits, per-call spans) off the phase.
    """
    if plane not in (CONTROL, DATA):
        raise ValueError(f"unknown plane {plane!r}")
    span = task.span
    traced = not span.is_null
    if traced:
        span = span.child(name, phase=tag, tags={"plane": plane})
    if callable(body):
        body = body(span)
    start = sim_now()
    try:
        result = yield from body
    except BaseException as exc:
        span.finish(error=type(exc).__name__)
        raise
    if traced:
        span.finish()
    task.phases.append((name, plane, sim_now() - start))
    return result


class Operation:
    """Base class: subclasses implement :meth:`run` as a process generator.

    ``run`` executes inside a task lifecycle (see
    :meth:`repro.controlplane.server.ManagementServer.submit`); it should
    append to ``task.phases`` via :func:`phase` and set ``task.result``.
    """

    op_type: OperationType

    def run(
        self, server: "ManagementServer", task: "Task"
    ) -> typing.Generator[typing.Any, typing.Any, None]:
        raise NotImplementedError

    # -- crash recovery ------------------------------------------------------
    #
    # After a management-server crash, the RecoveryManager asks each parked
    # operation what its interrupted attempt left behind. These are plain
    # (non-generator) methods: reconciliation inspects in-memory ground
    # truth — inventory, hosts — while the replay's simulated cost is
    # charged by the recovery manager itself.

    def recovery_probe(
        self, server: "ManagementServer", task: "Task"
    ) -> str:
        """Ground-truth verdict for a crash-interrupted attempt.

        Returns ``"complete"`` (the work finished; adopt it),
        ``"partial"`` (half-done side effects; roll back, then re-issue),
        or ``"absent"`` (nothing externalized; re-issue). The default
        claims nothing survived — safe for operations whose attempts leave
        no externalized state.
        """
        return "absent"

    def recovery_adopt(self, server: "ManagementServer", task: "Task") -> None:
        """Claim completed orphaned work (e.g. set ``task.result``)."""

    def recovery_rollback(self, server: "ManagementServer", task: "Task") -> None:
        """Undo half-done side effects before the attempt is re-issued."""

    # Convenience wrapper binding the common arguments of :func:`phase`.
    def timed(
        self,
        server: "ManagementServer",
        task: "Task",
        name: str,
        plane: str,
        body: typing.Generator | typing.Callable[[Span], typing.Generator],
        tag: str = PHASE_TASK,
    ) -> typing.Generator[typing.Any, typing.Any, typing.Any]:
        return phase(task, name, plane, lambda: server.sim.now, body, tag=tag)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.op_type.value}>"
