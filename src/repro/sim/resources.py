"""Shared resources: capacity-limited servers and item stores.

These are the queueing primitives the control-plane model is built from:
per-host operation slots, the management-server thread pool, database
connections, and datastore copy slots are all :class:`Resource` (or
:class:`PriorityResource`) instances.
"""

from __future__ import annotations

import heapq
import typing

from repro.sim.events import PENDING, Event, OwnedEvent

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Fires (succeeds) once capacity is granted. May be ``withdraw()``-n while
    still queued — used to implement request timeouts.
    """

    __slots__ = ("resource", "priority", "enqueued_at", "granted_at")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        # Inlined Event.__init__, as in Timeout: one request per resource use.
        self.sim = sim = resource.sim
        self._name = None
        self.callbacks = []
        self._state = PENDING
        self._value = None
        self._exception = None
        self.resource = resource
        self.priority = priority
        self.enqueued_at = sim._now
        self.granted_at: float | None = None

    def _default_name(self) -> str:
        return f"request:{self.resource.name}"

    def withdraw(self) -> None:
        """Remove this request from the resource queue before it is granted."""
        self.resource._withdraw(self)

    @property
    def wait_time(self) -> float:
        """Queueing delay; only meaningful once granted."""
        if self.granted_at is None:
            raise RuntimeError("request not yet granted")
        return self.granted_at - self.enqueued_at


class Resource:
    """A FCFS server with fixed integer capacity.

    Usage from a process::

        request = resource.request()
        yield request
        try:
            ...  # hold the slot
        finally:
            resource.release(request)
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._queue: list[Request] = []
        self._waits: list[float] = []

    # -- introspection -----------------------------------------------------

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def wait_times(self) -> list[float]:
        """Queueing delays of all granted requests, in grant order."""
        return list(self._waits)

    # -- protocol ----------------------------------------------------------

    def request(self, priority: float = 0.0) -> Request:
        request = Request(self, priority=priority)
        if len(self._users) < self.capacity:
            # Every change dispatches, so a free slot means nobody is queued:
            # grant at once, with _dispatch's bookkeeping in its order.
            self._users.add(request)
            request.granted_at = request.enqueued_at
            self._waits.append(0.0)
            request.succeed(value=request)
        else:
            self._queue.append(request)
        return request

    def release(self, request: Request) -> None:
        if request not in self._users:
            raise RuntimeError(f"release of non-held request on {self.name!r}")
        self._users.discard(request)
        if self._queue:
            self._dispatch()

    def resize(self, capacity: int) -> None:
        """Change capacity at runtime (used by reconfiguration ablations)."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._dispatch()

    # -- internals -----------------------------------------------------------

    def _next_index(self) -> int:
        return 0

    def _dispatch(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            request = self._queue.pop(self._next_index())
            self._users.add(request)
            request.granted_at = self.sim._now
            self._waits.append(request.granted_at - request.enqueued_at)
            request.succeed(value=request)

    def _withdraw(self, request: Request) -> None:
        if request in self._queue:
            self._queue.remove(request)
            request.cancel()
        elif request in self._users:
            raise RuntimeError("cannot withdraw a granted request; release it")


class PriorityResource(Resource):
    """A resource that grants the lowest ``priority`` value first.

    Ties break FCFS. Used for the management server's task queue where
    interactive operations preempt (in ordering, not service) bulk
    provisioning.
    """

    def _next_index(self) -> int:
        best = 0
        for index, request in enumerate(self._queue):
            if request.priority < self._queue[best].priority:
                best = index
        return best


class Store:
    """An unbounded FIFO buffer of items with blocking ``get``.

    Producers call :meth:`put` (never blocks); consumers yield :meth:`get`.
    Used for work queues (e.g. the host-sync batch queue).
    """

    def __init__(self, sim: "Simulator", name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self._items: list[typing.Any] = []
        self._getters: list[Event] = []

    @property
    def size(self) -> int:
        return len(self._items)

    def put(self, item: typing.Any) -> None:
        self._items.append(item)
        self._drain()

    def get(self) -> Event:
        event = OwnedEvent(self.sim, "get", self)
        self._getters.append(event)
        self._drain()
        return event

    def _drain(self) -> None:
        while self._items and self._getters:
            getter = self._getters.pop(0)
            if getter.cancelled:
                continue
            getter.succeed(value=self._items.pop(0))


class TokenBucket:
    """A rate limiter: ``take(n)`` blocks until n tokens have accrued.

    Tokens accrue continuously at ``rate`` per second up to ``burst``.
    Used to model API admission throttling at the cloud director.
    """

    def __init__(
        self,
        sim: "Simulator",
        rate: float,
        burst: float,
        name: str = "bucket",
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.sim = sim
        self.rate = rate
        self.burst = burst
        self.name = name
        self._tokens = burst
        self._stamp = sim.now
        self._turn: Event | None = None  # serializes takers FCFS

    def _accrue(self) -> None:
        elapsed = self.sim.now - self._stamp
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = self.sim.now

    def take(self, amount: float = 1.0) -> typing.Generator[Event, typing.Any, None]:
        """Process-style helper: ``yield from bucket.take(n)``."""
        if amount > self.burst:
            raise ValueError(f"take({amount}) exceeds burst {self.burst}")
        while True:
            self._accrue()
            # Nanotoken tolerance: accrual arithmetic can leave the balance
            # a few ulp short of the target, and waiting that deficit out
            # schedules a delay smaller than the clock's resolution —
            # time would stop advancing and the loop would spin forever.
            if self._tokens + 1e-9 >= amount:
                self._tokens = max(0.0, self._tokens - amount)
                return
            deficit = amount - self._tokens
            yield self.sim.timeout(deficit / self.rate)
