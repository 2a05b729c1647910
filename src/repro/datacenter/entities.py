"""Infrastructure entities: datacenters, clusters, hosts, datastores, networks."""

from __future__ import annotations

import dataclasses
import enum
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.vm import VirtualMachine


class PowerState(enum.Enum):
    """Power state of a VM (re-exported by :mod:`repro.datacenter.vm`)."""

    ON = "poweredOn"
    OFF = "poweredOff"
    SUSPENDED = "suspended"


class HostState(enum.Enum):
    """Connection state of a host as seen by the management server."""

    CONNECTED = "connected"
    MAINTENANCE = "maintenance"
    DISCONNECTED = "disconnected"


@dataclasses.dataclass
class ManagedEntity:
    """Base for everything with a managed-object identity."""

    entity_id: str
    name: str

    def __hash__(self) -> int:
        return hash(self.entity_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ManagedEntity) and other.entity_id == self.entity_id


@dataclasses.dataclass(eq=False)
class Network(ManagedEntity):
    """A virtual network (port group). VMs attach NICs to networks."""

    vlan: int = 0


@dataclasses.dataclass(eq=False)
class Datastore(ManagedEntity):
    """Shared storage visible to some set of hosts.

    ``capacity_gb``/``used_gb`` track space; ``hosts`` is the mount set —
    the quantity that makes rescans expensive (a rescan touches every
    mounting host).
    """

    capacity_gb: float = 1024.0
    used_gb: float = 0.0
    hosts: set["Host"] = dataclasses.field(default_factory=set)

    @property
    def free_gb(self) -> float:
        return self.capacity_gb - self.used_gb

    def allocate(self, size_gb: float) -> None:
        if size_gb < 0:
            raise ValueError(f"negative allocation {size_gb}")
        if size_gb > self.free_gb + 1e-9:
            raise CapacityError(
                f"datastore {self.name!r}: need {size_gb:.1f} GB, free {self.free_gb:.1f} GB"
            )
        self.used_gb += size_gb

    def reclaim(self, size_gb: float) -> None:
        if size_gb < 0:
            raise ValueError(f"negative reclaim {size_gb}")
        self.used_gb = max(0.0, self.used_gb - size_gb)


@dataclasses.dataclass(eq=False)
class Host(ManagedEntity):
    """An ESXi-style hypervisor host.

    ``memory_overcommit`` is the admission headroom: powered-on guest
    memory may reach ``memory_gb × memory_overcommit`` (ballooning/page
    sharing make >1.0 the norm).
    """

    cpu_cores: int = 16
    memory_gb: float = 128.0
    memory_overcommit: float = 1.5
    state: HostState = HostState.CONNECTED
    cluster: typing.Optional["Cluster"] = None
    datastores: set[Datastore] = dataclasses.field(default_factory=set)
    networks: set[Network] = dataclasses.field(default_factory=set)
    vms: set["VirtualMachine"] = dataclasses.field(default_factory=set)

    @property
    def is_usable(self) -> bool:
        return self.state == HostState.CONNECTED

    @property
    def powered_on_vms(self) -> int:
        return sum(1 for vm in self.vms if vm.power_state == PowerState.ON)

    @property
    def memory_in_use_gb(self) -> float:
        """Guest memory of powered-on VMs (what admission counts)."""
        return sum(
            vm.memory_gb for vm in self.vms if vm.power_state == PowerState.ON
        )

    @property
    def memory_limit_gb(self) -> float:
        return self.memory_gb * self.memory_overcommit

    def can_admit(self, memory_gb: float) -> bool:
        """Would a ``memory_gb`` guest fit under the admission limit?"""
        return self.memory_in_use_gb + memory_gb <= self.memory_limit_gb + 1e-9

    def mount(self, datastore: Datastore) -> None:
        self.datastores.add(datastore)
        datastore.hosts.add(self)

    def unmount(self, datastore: Datastore) -> None:
        self.datastores.discard(datastore)
        datastore.hosts.discard(self)

    def attach_network(self, network: Network) -> None:
        self.networks.add(network)


@dataclasses.dataclass(eq=False)
class Cluster(ManagedEntity):
    """A DRS/HA cluster of hosts sharing placement decisions."""

    hosts: list[Host] = dataclasses.field(default_factory=list)
    drs_enabled: bool = True

    def add_host(self, host: Host) -> None:
        if host in self.hosts:
            raise ValueError(f"host {host.name!r} already in cluster {self.name!r}")
        self.hosts.append(host)
        host.cluster = self

    def remove_host(self, host: Host) -> None:
        self.hosts.remove(host)
        host.cluster = None

    @property
    def usable_hosts(self) -> list[Host]:
        return [host for host in self.hosts if host.is_usable]

    @property
    def vm_count(self) -> int:
        return sum(len(host.vms) for host in self.hosts)

    def shared_datastores(self) -> set[Datastore]:
        """Datastores mounted by every usable host (valid placement targets)."""
        usable = self.usable_hosts
        if not usable:
            return set()
        return set.intersection(*(host.datastores for host in usable))


@dataclasses.dataclass(eq=False)
class Datacenter(ManagedEntity):
    """Top-level container: clusters plus datacenter-wide storage/networks."""

    clusters: list[Cluster] = dataclasses.field(default_factory=list)
    datastores: list[Datastore] = dataclasses.field(default_factory=list)
    networks: list[Network] = dataclasses.field(default_factory=list)

    def add_cluster(self, cluster: Cluster) -> None:
        self.clusters.append(cluster)

    @property
    def hosts(self) -> list[Host]:
        return [host for cluster in self.clusters for host in cluster.hosts]

    @property
    def vms(self) -> list["VirtualMachine"]:
        return [vm for host in self.hosts for vm in host.vms]


class CapacityError(Exception):
    """Raised when a datastore cannot satisfy an allocation."""
