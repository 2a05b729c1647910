"""Virtual machines, virtual disks, backing chains, and snapshots.

The disk-backing chain is the heart of the paper's data-plane argument:

- A **full clone** copies the entire base backing: bytes moved scale with
  the virtual-disk size.
- A **linked clone** creates a new, initially-empty *delta* backing whose
  parent is a read-only snapshot backing of the source: bytes moved are
  (nearly) zero, but every clone still costs the control plane the same
  bookkeeping — which is exactly how the control plane becomes the
  bottleneck once clones go linked.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.datacenter.entities import Datastore, Host, ManagedEntity, Network, PowerState

_backing_ids = itertools.count(1)


@dataclasses.dataclass
class DiskBacking:
    """One file in a virtual disk's backing chain.

    ``parent`` is None for a base backing; linked clones hang delta
    backings off shared read-only parents. ``size_gb`` is the *allocated*
    size of this link only (deltas start small and grow).
    """

    datastore: Datastore
    size_gb: float
    parent: typing.Optional["DiskBacking"] = None
    read_only: bool = False
    backing_id: int = dataclasses.field(default_factory=lambda: next(_backing_ids))
    children: int = 0

    def __post_init__(self) -> None:
        if self.size_gb < 0:
            raise ValueError(f"negative backing size {self.size_gb}")
        if self.parent is not None:
            self.parent.children += 1

    @property
    def chain_depth(self) -> int:
        """Number of links from this backing to the base (base == 1)."""
        depth = 1
        backing = self
        while backing.parent is not None:
            depth += 1
            backing = backing.parent
        return depth

    def chain(self) -> list["DiskBacking"]:
        """This backing and all ancestors, leaf first."""
        links = []
        backing: DiskBacking | None = self
        while backing is not None:
            links.append(backing)
            backing = backing.parent
        return links

    @property
    def logical_size_gb(self) -> float:
        """Size of the full logical disk (sum over the chain)."""
        return sum(link.size_gb for link in self.chain())


@dataclasses.dataclass
class VirtualDisk:
    """A virtual disk attached to a VM; points at the leaf of its chain."""

    label: str
    backing: DiskBacking
    provisioned_gb: float

    @property
    def datastore(self) -> Datastore:
        return self.backing.datastore

    @property
    def chain_depth(self) -> int:
        return self.backing.chain_depth


@dataclasses.dataclass
class Snapshot:
    """A point-in-time VM state; freezes the current leaf backings read-only."""

    name: str
    backings: list[DiskBacking]
    children: list["Snapshot"] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(eq=False)
class VirtualMachine(ManagedEntity):
    """A virtual machine (or template, when ``is_template``)."""

    vcpus: int = 2
    memory_gb: float = 4.0
    power_state: PowerState = PowerState.OFF
    host: typing.Optional[Host] = None
    disks: list[VirtualDisk] = dataclasses.field(default_factory=list)
    networks: list[Network] = dataclasses.field(default_factory=list)
    is_template: bool = False
    snapshots: list[Snapshot] = dataclasses.field(default_factory=list)
    created_at: float = 0.0
    destroyed_at: typing.Optional[float] = None

    @property
    def is_powered_on(self) -> bool:
        return self.power_state == PowerState.ON

    @property
    def total_disk_gb(self) -> float:
        """Logical (provisioned) disk size across all disks."""
        return sum(disk.provisioned_gb for disk in self.disks)

    @property
    def allocated_disk_gb(self) -> float:
        """Actually-allocated bytes unique to this VM (leaf links only)."""
        return sum(disk.backing.size_gb for disk in self.disks)

    @property
    def max_chain_depth(self) -> int:
        return max((disk.chain_depth for disk in self.disks), default=0)

    @property
    def is_linked_clone(self) -> bool:
        return any(disk.backing.parent is not None for disk in self.disks)

    def place_on(self, host: Host) -> None:
        if self.host is not None:
            self.host.vms.discard(self)
        self.host = host
        host.vms.add(self)

    def evacuate(self) -> None:
        if self.host is not None:
            self.host.vms.discard(self)
        self.host = None

    def attach_disk(self, disk: VirtualDisk) -> None:
        self.disks.append(disk)

    def take_snapshot(self, name: str) -> Snapshot:
        """Freeze current leaves read-only and attach fresh deltas.

        Mirrors the hypervisor behaviour: after a snapshot the running VM
        writes to new delta links whose parents are the frozen leaves.
        """
        frozen = []
        for disk in self.disks:
            leaf = disk.backing
            leaf.read_only = True
            frozen.append(leaf)
            disk.backing = DiskBacking(
                datastore=leaf.datastore, size_gb=0.0, parent=leaf
            )
        snapshot = Snapshot(name=name, backings=frozen)
        self.snapshots.append(snapshot)
        return snapshot
