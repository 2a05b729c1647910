"""Inventory locking: serializes mutations on managed entities.

Management servers serialize concurrent operations touching the same
entity, but distinguish *shared* access (a template being cloned by many
operations at once) from *exclusive* access (destroying that template).
Locks here are fair reader-writer locks; granularity is an ablation knob:
``fine`` locks per entity id, ``coarse`` is one global inventory lock —
the degenerate design whose cost R-T3 quantifies.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.sim.events import Event, OwnedEvent
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricsRegistry

READ = "read"
WRITE = "write"


@dataclasses.dataclass
class RWGrant:
    """A held lock: pass back to :meth:`RWLock.release`."""

    lock: "RWLock"
    mode: str


class RWLock:
    """A fair (FIFO) reader-writer lock.

    Consecutive readers at the queue head are granted together; a writer
    waits for all current readers and blocks later readers (no writer
    starvation).
    """

    def __init__(self, sim: Simulator, name: str = "rwlock") -> None:
        self.sim = sim
        self.name = name
        self.readers = 0
        self.writer = False
        self._queue: collections.deque[tuple[str, Event]] = collections.deque()

    def acquire(self, mode: str) -> Event:
        if mode not in (READ, WRITE):
            raise ValueError(f"unknown lock mode {mode!r}")
        event = OwnedEvent(self.sim, mode, self)
        self._queue.append((mode, event))
        self._dispatch()
        return event

    def release(self, grant: RWGrant) -> None:
        if grant.lock is not self:
            raise RuntimeError("grant belongs to a different lock")
        if grant.mode == WRITE:
            if not self.writer:
                raise RuntimeError(f"release of unheld write lock {self.name!r}")
            self.writer = False
        else:
            if self.readers <= 0:
                raise RuntimeError(f"release of unheld read lock {self.name!r}")
            self.readers -= 1
        self._dispatch()

    def withdraw(self, event: Event) -> None:
        """Remove a still-queued acquire; no-op if already granted."""
        for index, (_mode, queued) in enumerate(self._queue):
            if queued is event:
                del self._queue[index]
                event.cancel()
                self._dispatch()
                return

    def _dispatch(self) -> None:
        while self._queue:
            mode, event = self._queue[0]
            if mode == WRITE:
                if self.readers == 0 and not self.writer:
                    self._queue.popleft()
                    self.writer = True
                    event.succeed(value=RWGrant(self, WRITE))
                    continue
                break
            # Reader: admit unless a writer currently holds the lock.
            if self.writer:
                break
            self._queue.popleft()
            self.readers += 1
            event.succeed(value=RWGrant(self, READ))

    @property
    def idle(self) -> bool:
        return self.readers == 0 and not self.writer and not self._queue


class LockManager:
    """Per-entity (or global) RW locks with deadlock-free ordered acquisition."""

    GLOBAL_KEY = "__inventory__"

    def __init__(
        self,
        sim: Simulator,
        granularity: str = "fine",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if granularity not in ("fine", "coarse"):
            raise ValueError(f"unknown granularity {granularity!r}")
        self.sim = sim
        self.granularity = granularity
        self.metrics = metrics or MetricsRegistry(sim, prefix="locks")
        self._locks: dict[str, RWLock] = {}

    def _lock(self, key: str) -> RWLock:
        if key not in self._locks:
            self._locks[key] = RWLock(self.sim, name=key)
        return self._locks[key]

    def _plan(
        self,
        write_ids: typing.Sequence[str],
        read_ids: typing.Sequence[str],
    ) -> list[tuple[str, str]]:
        """(key, mode) pairs in deadlock-free sorted order.

        Under coarse granularity everything degrades to one global
        exclusive lock. An id requested in both modes locks as write.
        """
        if self.granularity == "coarse":
            return [(self.GLOBAL_KEY, WRITE)]
        modes: dict[str, str] = {}
        for entity_id in read_ids:
            modes[entity_id] = READ
        for entity_id in write_ids:
            modes[entity_id] = WRITE
        return sorted(modes.items())

    def acquire(
        self,
        write_ids: typing.Sequence[str],
        read_ids: typing.Sequence[str] = (),
    ) -> typing.Generator[typing.Any, typing.Any, list[RWGrant]]:
        """Process-style: acquire all locks; returns grant handles.

        All-or-nothing: if the acquiring process dies mid-sequence
        (interrupt, injected fault), already-held grants are released and
        the in-flight queue entry withdrawn — partial grants never leak.
        """
        start = self.sim.now
        grants: list[RWGrant] = []
        for key, mode in self._plan(write_ids, read_ids):
            lock = self._lock(key)
            pending = lock.acquire(mode)
            try:
                grant = yield pending
            except BaseException:
                if pending.triggered:
                    lock.release(pending.value)
                else:
                    lock.withdraw(pending)
                for held in reversed(grants):
                    held.lock.release(held)
                raise
            grants.append(grant)
        self.metrics.latency("acquire_wait").record(self.sim.now - start)
        return grants

    def release(self, grants: list[RWGrant]) -> None:
        # Reverse order for symmetry; correctness doesn't depend on it.
        for grant in reversed(grants):
            grant.lock.release(grant)

    def holding(
        self,
        write_ids: typing.Sequence[str],
        read_ids: typing.Sequence[str] = (),
    ) -> "LockScope":
        """Scope helper pairing acquire/release over a fixed entity set.

        Usage::

            scope = locks.holding([vm.entity_id], read_ids=[src.entity_id])
            grants = yield from scope.acquire()
            try:
                ...
            finally:
                scope.release(grants)
        """
        return LockScope(self, write_ids, read_ids)

    def contention(self) -> float:
        """Mean lock-acquire wait across all acquisitions (seconds)."""
        return self.metrics.latency("acquire_wait").mean


class LockScope:
    """Pairs acquire/release over fixed write/read entity sets."""

    def __init__(
        self,
        manager: LockManager,
        write_ids: typing.Sequence[str],
        read_ids: typing.Sequence[str] = (),
    ) -> None:
        self.manager = manager
        self.write_ids = list(write_ids)
        self.read_ids = list(read_ids)

    def acquire(self) -> typing.Generator[typing.Any, typing.Any, list[RWGrant]]:
        return self.manager.acquire(self.write_ids, self.read_ids)

    def release(self, grants: list[RWGrant]) -> None:
        self.manager.release(grants)
