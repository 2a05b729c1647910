"""The management server: composition root of the control plane.

One instance = one vCenter-style server managing an inventory of hosts.
Operations are simulated processes that consume the server's four contended
resources:

1. CPU workers (request validation, placement, config generation);
2. the database connection pool;
3. the inventory lock manager;
4. per-host agent slots.

plus the storage data plane (copy scheduler) for byte-moving phases.
"""

from __future__ import annotations

import typing

from repro.datacenter.entities import Datastore, Host
from repro.datacenter.inventory import Inventory
from repro.faults.errors import ServerCrashed, ShardUnavailable
from repro.faults.hooks import FaultHook
from repro.sim.kernel import Process, Simulator
from repro.sim.random import RandomStreams, service_time
from repro.sim.resources import Resource
from repro.sim.stats import MetricsRegistry
from repro.storage.copy_engine import CopyEngine
from repro.storage.scheduler import CopyScheduler
from repro.controlplane.bus import AgentProxy, NULL_BUS
from repro.controlplane.costs import ControlPlaneConfig, ControlPlaneCosts, DEFAULT_COSTS
from repro.controlplane.database import DatabaseModel
from repro.controlplane.host_agent import HostAgent
from repro.controlplane.locks import LockManager
from repro.controlplane.recovery import NULL_JOURNAL, RecoveryManager
from repro.controlplane.resilience import (
    BREAKER_STATE_VALUE,
    CircuitBreaker,
    RetryBudget,
)
from repro.controlplane.task_manager import Task, TaskManager
from repro.telemetry.metrics import NULL_TELEMETRY
from repro.tracing import NULL_SPAN, NULL_TRACER, PHASE_CPU, PHASE_QUEUE

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.operations.base import Operation


class ManagementServer:
    """A vCenter-style management server over a private inventory."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        costs: ControlPlaneCosts = DEFAULT_COSTS,
        config: ControlPlaneConfig | None = None,
        name: str = "vc-1",
        storage_capacity_bps: float | None = None,
        tracer=None,
        telemetry=None,
        journal=None,
        bus=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.costs = costs
        self.config = config or ControlPlaneConfig()
        self.streams = streams
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.metrics = MetricsRegistry(sim, prefix=name)
        self.inventory = Inventory()

        self.database = DatabaseModel(
            sim,
            costs,
            connections=self.config.db_connections,
            rng=streams.stream(f"{name}:db"),
            batching=self.config.db_batching,
            metrics=MetricsRegistry(sim, prefix=f"{name}.db"),
        )
        self.locks = LockManager(
            sim,
            granularity=self.config.lock_granularity,
            metrics=MetricsRegistry(sim, prefix=f"{name}.locks"),
        )
        self.retry_budget = (
            RetryBudget(ratio=self.config.retry_budget_ratio)
            if self.config.retry_budget_ratio is not None
            else None
        )
        self.tasks = TaskManager(
            sim,
            self.database,
            max_inflight=self.config.max_inflight_tasks,
            per_type_limits=self.config.per_type_limits,
            metrics=MetricsRegistry(sim, prefix=f"{name}.tasks"),
            retry_policy=self.config.retry_policy,
            retry_budget=self.retry_budget,
            task_deadline_s=self.config.task_deadline_s,
            rng=streams.stream(f"{name}:retry"),
            tracer=self.tracer,
            telemetry=self.telemetry,
        )
        self.cpu = Resource(sim, capacity=self.config.cpu_workers, name=f"{name}-cpu")
        self._cpu_rng = streams.stream(f"{name}:cpu")
        self._cpu_busy = 0.0

        engine_kwargs = {}
        if storage_capacity_bps is not None:
            engine_kwargs["default_capacity_bps"] = storage_capacity_bps
        self.copy_engine = CopyEngine(
            sim,
            metrics=MetricsRegistry(sim, prefix=f"{name}.copy"),
            rng=streams.stream(f"{name}:copy-faults"),
            **engine_kwargs,
        )
        self.copy_scheduler = CopyScheduler(
            sim,
            self.copy_engine,
            slots_per_datastore=self.config.copy_slots_per_datastore,
            metrics=MetricsRegistry(sim, prefix=f"{name}.copysched"),
        )
        self._agents: dict[str, HostAgent] = {}
        # Whole-server outage hook (shard crashes): submissions fail while
        # blocked. Armed by repro.faults.ShardCrash windows.
        self.faults = FaultHook(sim, name=name, error_factory=ShardUnavailable)
        self.event_log = None
        self.started_at = sim.now
        # Crash recovery: the write-ahead task journal (NULL_JOURNAL = off)
        # and the restart reconciler. ServerCrash windows call crash() /
        # restart(); in-flight task processes are interrupted on crash and
        # park in the recovery manager until the journal replays.
        self.journal = journal if journal is not None else NULL_JOURNAL
        self.recovery = RecoveryManager(self)
        self.tasks.journal = self.journal
        self.tasks.recovery = self.recovery
        self.tasks.admit = self._admit
        self._crash_tokens: set = set()
        self._inflight: set[Process] = set()
        # Read-only observers of crash onset, called as listener(server, now)
        # on the first active token only (the incident recorder snapshots
        # here). Listeners must not mutate simulation state.
        self.crash_listeners: list = []
        # Message bus (NULL_BUS = off). A mediated bus carries the
        # submit and host-agent hops through topics: the submission
        # consumer starts here, per-host consumers start in adopt_host,
        # and bus-level dead letters land in the task manager's
        # deduplicated sink. A direct_calls bus is inert: no consumers,
        # no topics, schedules byte-identical to a bus-free run.
        self.bus = bus if bus is not None else NULL_BUS
        self._agent_proxies: dict[str, AgentProxy] = {}
        self._submit_seq = 0
        if self.bus.mediated:
            self.bus.dead_letter_sink = self.tasks.record_message_dead_letter
            self._submit_topic = self.bus.subscribe(f"tasks.submit:{name}")
            self.sim.spawn(self._serve_submissions(), name=f"{name}:bus-submit-consumer")
        self._register_telemetry()

    def _register_telemetry(self) -> None:
        """Expose every child registry and resource to the scraper.

        Registries are *watched* (the scraper reads them; nothing in the
        hot path changes) and instantaneous resource levels are exposed as
        read-only probes — both no-ops on :data:`NULL_TELEMETRY`.
        """
        telemetry = self.telemetry
        telemetry.watch_registry(self.database.metrics, component="db")
        telemetry.watch_registry(self.tasks.metrics, component="tasks")
        telemetry.watch_registry(self.locks.metrics, component="locks")
        telemetry.watch_registry(self.copy_engine.metrics, component="copy")
        telemetry.watch_registry(self.copy_scheduler.metrics, component="copysched")
        telemetry.probe(
            "cpu_utilization", lambda: self.cpu.in_use / self.cpu.capacity
        )
        telemetry.probe("db_pool_in_use", lambda: float(self.database.pool.in_use))
        telemetry.probe(
            "db_utilization",
            lambda: self.database.pool.in_use / self.database.pool.capacity,
        )
        telemetry.probe("db_pool_queue", lambda: float(self.database.queue_depth))
        telemetry.probe("tasks_queue_depth", lambda: float(self.tasks.queue_depth))
        if self.retry_budget is not None:
            telemetry.probe(
                "retry_budget_tokens", lambda: float(self.retry_budget.tokens)
            )
        telemetry.probe("server_crashed", lambda: 1.0 if self.crashed else 0.0)
        telemetry.probe(
            "server_blocked", lambda: 1.0 if self.faults.blocked() else 0.0
        )
        telemetry.probe(
            "recovery_parked", lambda: float(self.recovery.parked_count)
        )

    def enable_event_logging(
        self,
        flush_interval_s: float = 10.0,
        rows_per_event: float = 1.0,
        until: float | None = None,
    ):
        """Attach an event log; task completions start posting to it.

        Returns the :class:`~repro.controlplane.eventlog.EventLog`. The
        flusher is started immediately (bounded by ``until`` if given).
        """
        from repro.controlplane.eventlog import EventLog

        if self.event_log is not None and self.event_log.active:
            raise RuntimeError("event logging already enabled")
        self.event_log = EventLog(
            self.sim,
            self.database,
            flush_interval_s=flush_interval_s,
            rows_per_event=rows_per_event,
        )
        self.tasks.event_log = self.event_log
        self.event_log.tracer = self.tracer
        self.event_log.start(until=until)
        return self.event_log

    # -- host management -----------------------------------------------------

    def adopt_host(self, host: Host) -> HostAgent:
        """Register an (already-inventoried) host's agent channel."""
        if host.entity_id in self._agents:
            raise ValueError(f"host {host.name!r} already adopted by {self.name}")
        agent = HostAgent(
            self.sim,
            host,
            self.costs,
            rng=self.streams.stream(f"{self.name}:hostd:{host.entity_id}"),
            op_slots=self.config.per_host_op_slots,
            metrics=MetricsRegistry(self.sim, prefix=f"{self.name}.hostd.{host.entity_id}"),
        )
        if self.config.breaker is not None:
            agent.breaker = CircuitBreaker(
                self.sim,
                self.config.breaker,
                name=host.name,
                metrics=agent.metrics,
            )
        self._agents[host.entity_id] = agent
        self.telemetry.watch_registry(agent.metrics, host=host.name)
        self.telemetry.probe(
            "hostd_utilization",
            lambda a=agent: a.slots.in_use / a.slots.capacity,
            host=host.name,
        )
        self.telemetry.probe(
            "hostd_breaker_state",
            lambda a=agent: float(BREAKER_STATE_VALUE[a.breaker.state])
            if a.breaker is not None
            else 0.0,
            host=host.name,
        )
        self.telemetry.probe(
            "host_up",
            lambda h=host: 1.0 if h.is_usable else 0.0,
            host=host.name,
        )
        if self.bus.mediated:
            topic = self.bus.subscribe(f"agent.{host.entity_id}")
            proxy = AgentProxy(self.bus, agent, topic.name)
            self._agent_proxies[host.entity_id] = proxy
            self.sim.spawn(
                self._serve_agent(agent, topic),
                name=f"{self.name}:bus-agent-consumer:{host.entity_id}",
            )
            return proxy
        return agent

    def agent(self, host: Host) -> HostAgent:
        """The host's agent channel — the bus proxy when mediated.

        The proxy delegates everything but ``call`` to the real agent, so
        fault hooks, breakers, and probes behave identically either way.
        """
        try:
            agent = self._agents[host.entity_id]
        except KeyError:
            raise KeyError(f"host {host.name!r} not managed by {self.name}") from None
        proxy = self._agent_proxies.get(host.entity_id)
        return proxy if proxy is not None else agent

    @property
    def hosts(self) -> list[Host]:
        return [agent.host for agent in self._agents.values()]

    @property
    def agents(self) -> list[HostAgent]:
        return list(self._agents.values())

    # -- CPU model -------------------------------------------------------------

    def cpu_work(
        self, median_s: float, span=NULL_SPAN, work_phase: str = PHASE_CPU
    ) -> typing.Generator[typing.Any, typing.Any, float]:
        """Process-style: occupy one CPU worker for a drawn service time.

        When traced, the pool wait gets a ``queue``-phase span and the
        service itself a ``work_phase`` span — callers whose CPU phase is
        semantically distinct (placement scoring) pass their own phase so
        attribution keeps the distinction.
        """
        start = self.sim.now
        request = self.cpu.request()
        traced = not span.is_null
        if traced:
            wait_span = span.child("cpu.wait", phase=PHASE_QUEUE, tags={"wait": True})
        yield request
        if traced:
            wait_span.finish()
        service = service_time(self._cpu_rng, median_s, self.costs.sigma)
        if traced:
            work_span = span.child("cpu.work", phase=work_phase)
        try:
            yield self.sim.timeout(service)
        finally:
            self.cpu.release(request)
            if traced:
                work_span.finish()
        self._cpu_busy += service
        return self.sim.now - start

    def cpu_utilization(self, since: float = 0.0) -> float:
        span = self.sim.now - since
        if span <= 0:
            return 0.0
        return min(1.0, self._cpu_busy / (span * self.cpu.capacity))

    # -- crash / restart -----------------------------------------------------

    @property
    def crashed(self) -> bool:
        """True while at least one :class:`ServerCrash` window holds us down."""
        return bool(self._crash_tokens)

    @property
    def inflight_tasks(self) -> int:
        """Live task lifecycles — the crash-interruptible process count."""
        return len(self._inflight)

    def crash(self, token: typing.Hashable) -> None:
        """Take the server down (fault-window arm).

        The first active token interrupts every in-flight task process with
        :class:`ServerCrashed` — generators unwind, releasing CPU workers,
        DB connections, and agent slots, and the task manager parks each
        task in the recovery manager. New submissions are rejected until
        :meth:`restart`. Overlapping windows nest: the server is up again
        only when the last token is released.
        """
        first = not self._crash_tokens
        self._crash_tokens.add(token)
        if not first:
            return
        victims = [p for p in self._inflight if p.is_alive]
        self.metrics.counter("crashes").add()
        self.recovery.on_crash(interrupted=len(victims))
        for listener in self.crash_listeners:
            listener(self, self.sim.now)
        for process in victims:
            process.interrupt(ServerCrashed(f"{self.name} crashed"))

    def restart(self, token: typing.Hashable) -> None:
        """Bring the server back up (fault-window disarm).

        When the last crash token clears, the recovery manager replays the
        journal and reconciles every parked task.
        """
        self._crash_tokens.discard(token)
        if not self._crash_tokens:
            self.recovery.on_restart()

    # -- operation submission ------------------------------------------------------

    def submit(
        self, operation: "Operation", priority: float = 5.0, span=NULL_SPAN
    ) -> Process:
        """Run an operation as a task; returns an event carrying it.

        Direct mode returns the lifecycle process itself. Mediated mode
        publishes the submission onto the bus and returns the reply event
        the submission consumer settles — same contract for callers: the
        event's value is the completed :class:`Task`, an operation failure
        fails it with the underlying exception. A caller with its own span
        (the cloud director's per-VM span) passes it so the task's span
        tree joins the request trace.
        """
        if not self.bus.mediated:
            return self._spawn_lifecycle(operation, priority, span)
        self._submit_seq += 1
        key = f"submit:{self.name}:{self._submit_seq}"
        reply = self.sim.event(name=f"bus-reply:{key}")
        self.sim.spawn(
            self.bus.publish(
                self._submit_topic.name,
                (operation, priority, span),
                key=key,
                reply=reply,
                span=span,
            ),
            name=f"{self.name}:bus-publish:{operation.op_type.value}",
        )
        return reply

    def _admit(self) -> None:
        """The task manager's admission gate, run on a lifecycle's first step.

        A crashed server or shard rejects the submission outright — no task
        row, no dispatch slot, just a failed process. ServerCrashed is
        transient: the caller may resubmit after the restart.
        """
        if self.crashed:
            raise ServerCrashed(f"{self.name} is down")
        self.faults.fire()

    def _run_operation(self, task: Task) -> typing.Generator:
        """A task body: the submitted operation's ``run`` against this server."""
        return task.operation.run(self, task)

    def _spawn_lifecycle(
        self, operation: "Operation", priority: float, span
    ) -> Process:
        """Spawn the task lifecycle process and track it for crash windows."""
        op_type = operation.op_type.value
        process = self.sim.spawn(
            self.tasks.run_task(
                op_type,
                self._run_operation,
                priority=priority,
                parent_span=span,
                operation=operation,
            ),
            name=f"{self.name}:{op_type}",
        )
        # Track the lifecycle so a ServerCrash window can interrupt it;
        # drop the reference as soon as the process finishes.
        self._inflight.add(process)
        process.callbacks.append(lambda _event: self._inflight.discard(process))
        return process

    def execute(self, operation: "Operation", priority: float = 5.0) -> Process:
        """Alias of :meth:`submit` (reads better at call sites that wait)."""
        return self.submit(operation, priority=priority)

    # -- bus consumers -------------------------------------------------------

    def _serve_submissions(self) -> typing.Generator:
        """Mediated mode: drain the submission topic into task lifecycles.

        The consumer itself is infrastructure — it survives crashes (the
        lifecycle it spawns rejects work while the server is down, exactly
        like a direct-mode submit). ``accept`` suppresses duplicate
        copies, so a redelivered submission never runs a second lifecycle.
        """
        topic = self._submit_topic
        while True:
            message = yield topic.get()
            if not self.bus.accept(message):
                continue
            operation, priority, span = message.payload
            process = self._spawn_lifecycle(operation, priority, span)
            self.bus.bridge(process, message)

    def _serve_agent(self, agent: HostAgent, topic) -> typing.Generator:
        """Mediated mode: drain one host's agent topic into hostd calls.

        Handlers join ``_inflight`` so a crash window interrupts them like
        any in-flight work — the slot is released on unwind and the reply
        fails, which the waiting task sees as its own crash interrupt.
        """
        while True:
            message = yield topic.get()
            if not self.bus.accept(message):
                continue
            kind, median_s, span = message.payload
            handler = self.sim.spawn(
                self._agent_call(agent, kind, median_s, span),
                name=f"{self.name}:hostd-handler:{agent.host.entity_id}",
            )
            self._inflight.add(handler)
            handler.callbacks.append(
                lambda _event, h=handler: self._inflight.discard(h)
            )
            self.bus.bridge(handler, message)

    def _agent_call(
        self, agent: HostAgent, kind: str, median_s: float, span
    ) -> typing.Generator:
        if self.crashed:
            raise ServerCrashed(f"{self.name} is down")
        result = yield from agent.call(kind, median_s, span=span)
        return result

    # -- reporting ------------------------------------------------------------------

    def utilization_snapshot(self, since: float = 0.0) -> dict[str, float]:
        """Utilization of each contended resource over [since, now]."""
        agents = self.agents
        hostd = (
            sum(agent.utilization(since) for agent in agents) / len(agents)
            if agents
            else 0.0
        )
        return {
            "cpu": self.cpu_utilization(since),
            "db": self.database.utilization(since),
            "hostd_mean": hostd,
            "lock_wait_mean_s": self.locks.contention(),
            "task_queue_mean": self.tasks.metrics.gauge("queue_depth").time_average(since),
        }

    def bottleneck(self, since: float = 0.0) -> str:
        """Name of the most-utilized control-plane resource."""
        snapshot = self.utilization_snapshot(since)
        candidates = {k: snapshot[k] for k in ("cpu", "db", "hostd_mean")}
        return max(candidates, key=candidates.get)

    def datastores(self) -> list[Datastore]:
        return self.inventory.all(Datastore)
