"""Federated self-service cloud: full tenant workflows over shards.

R-F9 shows raw clone storms scale with shards; this module closes the
loop for *complete tenant workflows*: a :class:`FederatedCloud` runs one
CloudDirector per shard (each with its own cluster, templates, and
catalog) behind an org-affinity router, so entire deploy/delete requests
— placement, quota, customization, power — execute against an N-shard
design.

Bus-routed federation (``affinity_only=False``) federates the shards over
the PR 6 message bus instead of pinning every org's work to its home
shard:

- **Topics.** Each shard owns an exclusive ``fed.submit:{shard}`` topic
  (the locality-preferred path) and every shard joins one shared
  ``fed.shared`` topic (:meth:`MessageBus.subscribe_shared`) that acts as
  a pull-based work pool.
- **Locality-aware routing.** A tenant deploy publishes to its home
  shard's topic when the home is healthy and unsaturated; idle shards
  *steal* from the shared pool, so locality is a preference, not a pin.
- **Spillover.** When the home shard's task queue depth reaches
  ``spill_queue_depth`` (or its retry budget burns below
  ``spill_retry_tokens``), the submission spills to ``fed.shared`` where
  any healthy shard picks it up.
- **Failover.** When a ``shard_crash``/``server_crash`` window fires, new
  submissions for the crashed home are re-routed to ``fed.shared`` at
  publish time, and submissions already pending on the crashed shard's
  topic are *forwarded* there by its consumer
  (:meth:`MessageBus.forward`) — the idempotency key travels with the
  message, so a submission executes at most once no matter how many
  shards saw a copy. ``check_federation_exactly_once`` in
  :mod:`repro.faults.chaos` asserts no lost or duplicated terminal state
  across shard boundaries.

Compatibility switch: ``affinity_only=True`` (the default) leaves the
router exactly as it always was — no topics are created, no consumers
spawn, and the schedule is byte-identical to a bus-free federation (the
differential test ``tests/cloud/test_federation_neutrality.py``, the same
discipline as ``direct_calls`` on the bus itself).

Per-shard ``steals`` / ``spills`` / ``reroutes`` / ``remote_completions``
counters surface through telemetry probes (``federation_*{shard=...}``)
and a dedicated section in the ``repro-top`` dashboard; the ``hot_shard``
triage rule pattern-matches on them. R-X8 is the exhibit.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.cloud.catalog import Catalog, CatalogItem
from repro.cloud.director import CloudDirector, DeployRequest
from repro.cloud.placement import PlacementEngine
from repro.cloud.tenancy import Organization
from repro.cloud.vapp import VApp
from repro.controlplane.costs import ControlPlaneConfig, ControlPlaneCosts, DEFAULT_COSTS
from repro.controlplane.shard import ShardedControlPlane
from repro.datacenter.entities import Cluster, Datacenter, Datastore, Host, Network
from repro.datacenter.templates import DEFAULT_SPECS, TemplateLibrary
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.sim.stats import MetricsRegistry
from repro.telemetry import NULL_TELEMETRY

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.controlplane.bus import Message, MessageBus

#: The federation-wide shared submission topic (work-stealing pool).
SHARED_TOPIC = "fed.shared"


def local_topic_name(shard_name: str) -> str:
    """The locality-preferred submission topic for one shard."""
    return f"fed.submit:{shard_name}"


@dataclass
class FederationShardStats:
    """Per-shard federation routing counters.

    ``steals``: submissions this shard pulled from the shared pool whose
    home was another shard. ``spills``: submissions re-routed away from
    this shard because it was saturated. ``reroutes``: submissions
    re-routed away because this shard was inside a crash window (at
    publish time or forwarded off its pending queue). ``remote_completions``:
    stolen submissions this shard carried to completion.
    """

    steals: int = 0
    spills: int = 0
    reroutes: int = 0
    remote_completions: int = 0


@dataclass(frozen=True)
class _FedSubmission:
    """The bus payload for one tenant deploy: executable by any shard.

    Carries names rather than bound entities — the executing shard binds
    the request to its *own* catalog, library, and hosts, which is what
    makes cross-shard stealing semantically safe (a stolen deploy lands
    on survivor capacity instead of referencing a dead shard's
    inventory).
    """

    org: Organization
    item_name: str
    vm_count: int
    vapp_name: str
    home: int


class FederatedCloud:
    """N shard-local clouds behind a router with org affinity.

    Each org is pinned to one shard (health-aware, least-loaded at first
    sight): tenant state stays shard-local, which is how real federations
    avoid cross-shard transactions. With ``affinity_only=False`` and a
    mediated bus, deploys ride federation topics with work-stealing,
    spillover, and shard-crash failover (see the module docstring).
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        shard_count: int,
        hosts_per_shard: int = 8,
        datastores_per_shard: int = 2,
        datastore_capacity_gb: float = 50_000.0,
        costs: ControlPlaneCosts = DEFAULT_COSTS,
        config: ControlPlaneConfig | None = None,
        bus: "MessageBus | None" = None,
        affinity_only: bool = True,
        journal: bool = False,
        telemetry=None,
        spill_queue_depth: int = 6,
        spill_retry_tokens: float | None = 2.0,
        steal_poll_s: float = 1.0,
    ) -> None:
        if shard_count < 1 or hosts_per_shard < 1 or datastores_per_shard < 1:
            raise ValueError("shard/host/datastore counts must be >= 1")
        if spill_queue_depth < 1:
            raise ValueError("spill_queue_depth must be >= 1")
        self.sim = sim
        self.plane = ShardedControlPlane(
            sim, streams, shard_count=shard_count, costs=costs, config=config,
            journal=journal,
        )
        self.metrics = MetricsRegistry(sim, prefix="federation")
        self.bus = bus
        self.affinity_only = affinity_only
        self.spill_queue_depth = spill_queue_depth
        self.spill_retry_tokens = spill_retry_tokens
        self.steal_poll_s = steal_poll_s
        self.directors: list[CloudDirector] = []
        self.shard_stats = [FederationShardStats() for _ in range(shard_count)]
        self._org_to_director: dict[str, CloudDirector] = {}
        self._org_home: dict[str, int] = {}
        self._next_director = 0
        # Deploying director per live vApp, keyed by (org name, vApp name);
        # delete() evicts, so the map holds only vApps not yet deleted.
        self._vapp_director: dict[tuple[str, str], CloudDirector] = {}
        self._submissions: list[tuple[str, typing.Any]] = []
        self._submit_seq = 0

        host_index = 0
        for shard in self.plane.shards:
            inventory = shard.inventory
            datacenter = inventory.create(Datacenter, name=f"dc-{shard.name}")
            cluster = inventory.create(Cluster, name=f"cluster-{shard.name}")
            datacenter.add_cluster(cluster)
            network = inventory.create(Network, name=f"net-{shard.name}")
            datastores = [
                inventory.create(
                    Datastore,
                    name=f"lun-{shard.name}-{i}",
                    capacity_gb=datastore_capacity_gb,
                )
                for i in range(datastores_per_shard)
            ]
            for _ in range(hosts_per_shard):
                host = Host(entity_id=f"host-{host_index}", name=f"esx{host_index:03d}")
                host_index += 1
                inventory.register(host)
                cluster.add_host(host)
                for datastore in datastores:
                    host.mount(datastore)
                host.attach_network(network)
                shard.adopt_host(host)
                self.plane.register_routing(host, shard)
            library = TemplateLibrary(inventory)
            catalog = Catalog(f"catalog-{shard.name}")
            for spec in DEFAULT_SPECS[:2]:
                library.publish(spec, datastores[0])
                catalog.add(CatalogItem(f"{spec.name}-linked", spec.name, linked=True))
            self.directors.append(
                CloudDirector(
                    shard,
                    cluster,
                    library,
                    catalog,
                    placement=PlacementEngine(policy="least_loaded"),
                )
            )

        t = telemetry if telemetry is not None else NULL_TELEMETRY
        for index, shard in enumerate(self.plane.shards):
            stats = self.shard_stats[index]
            for field, help_text in (
                ("steals", "submissions pulled from the shared pool for another home"),
                ("spills", "submissions spilled off this shard by saturation"),
                ("reroutes", "submissions re-routed off this shard by a crash window"),
                ("remote_completions", "stolen submissions carried to completion here"),
            ):
                t.probe(
                    f"federation_{field}",
                    lambda s=stats, f=field: float(getattr(s, f)),
                    help=help_text,
                    shard=shard.name,
                )

        self._local_topics: list = []
        self._shared_topic = None
        if not affinity_only:
            if bus is None or not bus.mediated:
                raise ValueError(
                    "bus-routed federation needs a mediated MessageBus "
                    "(direct_calls=False); pass one or keep affinity_only=True"
                )
            self._shared_topic = bus.subscribe_shared(SHARED_TOPIC)
            for index, shard in enumerate(self.plane.shards):
                self._local_topics.append(bus.subscribe(local_topic_name(shard.name)))
            for index, shard in enumerate(self.plane.shards):
                sim.spawn(self._serve_local(index), name=f"fed-local:{shard.name}")
                sim.spawn(self._serve_shared(index), name=f"fed-shared:{shard.name}")

    # -- routing ------------------------------------------------------------

    def director_for(self, org: Organization) -> CloudDirector:
        """The org's home shard (health-aware, least-loaded on first use).

        Homing skips shards inside a crash window and prefers the least
        loaded of the rest, breaking ties in rotation order — with every
        shard healthy and equally loaded this reduces exactly to the
        original round-robin, so all-healthy schedules are unchanged. If
        *every* shard is down, the rotation pick stands (the deploy will
        fail or be re-routed downstream, but homing stays deterministic).
        """
        if org.name not in self._org_to_director:
            index = self._home_index_for_new_org()
            self._next_director = index + 1
            self._org_to_director[org.name] = self.directors[index]
            self._org_home[org.name] = index
            self.metrics.counter("orgs_homed").add()
        return self._org_to_director[org.name]

    def _home_index_for_new_org(self) -> int:
        count = len(self.directors)
        best: tuple[int, int] | None = None
        for offset in range(count):
            index = (self._next_director + offset) % count
            shard = self.plane.shards[index]
            if self.plane.is_down(shard):
                continue
            load = self.plane.load_of(shard)
            if best is None or load < best[0]:
                best = (load, index)
        if best is None:
            return self._next_director % count
        return best[1]

    def home_of(self, org: Organization) -> int | None:
        """The shard index ``org`` is homed on (None before first use)."""
        return self._org_home.get(org.name)

    def _saturated(self, index: int) -> bool:
        shard = self.plane.shards[index]
        if shard.tasks.queue_depth >= self.spill_queue_depth:
            return True
        budget = shard.retry_budget
        return (
            budget is not None
            and self.spill_retry_tokens is not None
            and budget.tokens < self.spill_retry_tokens
        )

    def _route(self, home: int) -> str:
        """Pick the submission topic for a deploy homed on ``home``."""
        shard = self.plane.shards[home]
        if self.plane.is_down(shard):
            self.shard_stats[home].reroutes += 1
            return SHARED_TOPIC
        if self._saturated(home):
            self.shard_stats[home].spills += 1
            return SHARED_TOPIC
        return local_topic_name(shard.name)

    def deploy(
        self, org: Organization, item_name: str, vm_count: int, vapp_name: str
    ) -> typing.Generator[typing.Any, typing.Any, VApp]:
        """Process-style: route and execute one tenant deploy."""
        director = self.director_for(org)
        if self.affinity_only:
            request = DeployRequest(
                org=org,
                item=director.catalog.get(item_name),
                vm_count=vm_count,
                vapp_name=vapp_name,
            )
            vapp = yield from director.deploy(request)
            self._vapp_director[(vapp.org.name, vapp.name)] = director
            self.metrics.latency("deploy_latency").record(vapp.deploy_latency)
            return vapp
        home = self._org_home[org.name]
        started = self.sim.now
        topic_name = self._route(home)
        self._submit_seq += 1
        key = f"fed-submit:{self._submit_seq}:{vapp_name}"
        reply = self.sim.event(name=f"fed-reply:{key}")
        self._submissions.append((key, reply))
        submission = _FedSubmission(
            org=org, item_name=item_name, vm_count=vm_count,
            vapp_name=vapp_name, home=home,
        )
        yield from self.bus.publish(topic_name, submission, key=key, reply=reply)
        vapp = yield reply
        # Tenant-perceived latency: publish through completion, bus queue
        # wait included (the affinity path's vapp.deploy_latency starts at
        # director admission, which is the same instant there).
        self.metrics.latency("deploy_latency").record(self.sim.now - started)
        return vapp

    # -- federation consumers ------------------------------------------------

    def _serve_local(self, index: int):
        """Consumer for one shard's locality-preferred topic.

        While the shard is inside a crash window, pending submissions are
        forwarded to the shared pool instead of accepted — the failover
        hop. The idempotency key rides along, so survivors execute each
        forwarded submission at most once.
        """
        topic = self._local_topics[index]
        while True:
            message = yield topic.get()
            if self.plane.is_down(self.plane.shards[index]):
                self.shard_stats[index].reroutes += 1
                self.bus.forward(message, SHARED_TOPIC)
                continue
            if not self.bus.accept(message):
                continue
            self._start_execution(index, message)

    def _serve_shared(self, index: int):
        """Consumer for the shared work-stealing pool.

        A shard only pulls from the pool while healthy and unsaturated —
        stealing is how idle capacity absorbs a hot or crashed sibling's
        load, not a way to overload itself. A message that lands while
        the shard is crashing back-offs one poll interval and returns to
        the pool for a healthier sibling.
        """
        topic = self._shared_topic
        while True:
            while (
                self.plane.is_down(self.plane.shards[index])
                or self._saturated(index)
            ):
                yield self.sim.timeout(self.steal_poll_s)
            message = yield topic.get()
            if self.plane.is_down(self.plane.shards[index]):
                yield self.sim.timeout(self.steal_poll_s)
                self.bus.forward(message, SHARED_TOPIC)
                continue
            if not self.bus.accept(message):
                continue
            if message.payload.home != index:
                self.shard_stats[index].steals += 1
            self._start_execution(index, message)

    def _start_execution(self, index: int, message: "Message") -> None:
        submission = message.payload
        process = self.sim.spawn(
            self._execute(index, submission),
            name=f"fed-exec:{self.plane.shards[index].name}:{submission.vapp_name}",
        )
        self.bus.bridge(process, message)

    def _execute(self, index: int, submission: _FedSubmission):
        """Run one federated deploy against the executing shard's own cloud."""
        director = self.directors[index]
        request = DeployRequest(
            org=submission.org,
            item=director.catalog.get(submission.item_name),
            vm_count=submission.vm_count,
            vapp_name=submission.vapp_name,
        )
        vapp = yield from director.deploy(request)
        self._vapp_director[(vapp.org.name, vapp.name)] = director
        if submission.home != index:
            self.shard_stats[index].remote_completions += 1
        return vapp

    def delete(self, vapp: VApp) -> typing.Generator[typing.Any, typing.Any, VApp]:
        # Deletes go straight to the director that actually deployed the
        # vApp (its VMs live on that shard's hosts); the home director is
        # only a fallback for vApps this cloud never saw deploy.
        director = self._vapp_director.pop(
            (vapp.org.name, vapp.name), None
        ) or self.director_for(vapp.org)
        return (yield from director.delete(vapp))

    # -- reporting -------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.directors)

    def deploy_latency_p(self, fraction: float) -> float:
        return self.metrics.latency("deploy_latency").percentile(fraction)

    def completed_tasks(self) -> int:
        return self.plane.completed_tasks()

    def utilization_snapshot(self, since: float = 0.0) -> dict[str, float]:
        return self.plane.utilization_snapshot(since)

    def unresolved_submissions(self) -> list[str]:
        """Keys of bus-routed submissions whose reply never settled."""
        return [key for key, reply in self._submissions if not reply.triggered]

    def federation_totals(self) -> dict[str, int]:
        """Summed per-shard routing counters."""
        return {
            field: sum(getattr(stats, field) for stats in self.shard_stats)
            for field in ("steals", "spills", "reroutes", "remote_completions")
        }
