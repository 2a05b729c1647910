"""The simulation kernel: event loop and process management.

Processes are Python generators that yield :class:`~repro.sim.events.Event`
instances; the kernel resumes them when the event fires. Determinism is
guaranteed by a strict (time, priority, sequence) ordering on the event heap:
two runs with the same seed produce identical schedules.

Fast path
---------

Same-tick resumes — process bootstrap on ``spawn()``, a yield of an
already-processed event, and ``interrupt()`` — do not allocate relay
:class:`Event` objects. They go on an *urgent* FIFO of ``(time, sequence,
callable)`` entries that the loop drains against the heap using the exact
same ``(time, priority, sequence)`` total order the relay events would have
had, so the schedule is bit-identical to the pre-fast-path kernel (covered
by a property test). ``Simulator(fast_resume=False)`` keeps the old
event-object path for differential testing.

Heap hygiene: cancelling a scheduled event (fair-share links do this on
every membership change) leaves a dead heap entry. Dead heads are dropped
on the single shared scan in :meth:`Simulator._prune`, and when dead
entries outnumber live ones the heap is compacted in place, so cancel-heavy
runs keep a bounded heap.

Queue backends
--------------

``Simulator(queue="heap")`` (the default) keeps the inlined binary heap;
``queue="calendar"`` swaps in the :class:`~repro.sim.queues.CalendarQueue`,
O(1) amortized under hyperscale pending sets. Both implement the same
``(time, priority, sequence)`` total order and the same cancel/compaction
semantics, so schedules are byte-identical — the heap is retained for
differential testing and small runs. ``REPRO_SIM_QUEUE`` selects the
default backend process-wide (used by the queue-equality CI job).

Timeouts are pooled: a fired :class:`Timeout` that nothing else references
is recycled onto a per-simulator free list and reused by
:meth:`Simulator.timeout` (see ``docs/performance.md`` for the lifecycle
rules). ``Simulator(pool_events=False)`` disables reuse for differential
testing; pooling never affects sequence numbering, so schedules are
identical either way.
"""

from __future__ import annotations

import os
import typing
from collections import deque
from heapq import heapify, heappop, heappush

from repro.sim.events import (
    CANCELLED,
    PENDING,
    PROCESSED,
    TRIGGERED,
    Event,
    EventCancelled,
    Timeout,
)
from repro.sim.queues import CalendarQueue

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]

# Priorities for same-timestamp ordering: kernel internals (process resume)
# run before ordinary events so resource handoffs are prompt.
URGENT = 0
NORMAL = 1

_INF = float("inf")


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` is whatever the interrupter supplied — typically an
    exception or a short string describing the failure being injected.
    """

    def __init__(self, cause: typing.Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Outcome:
    """A decided outcome on no queue: how bootstrap and interrupts resume."""

    __slots__ = ("_state", "_value", "_exception")

    def __init__(self, exception: BaseException | None = None) -> None:
        self._state, self._value, self._exception = PROCESSED, None, exception


_START = _Outcome()


class Process(Event):
    """A running activity; also an event that fires when the activity ends.

    The process's success value is the generator's return value; an uncaught
    exception inside the generator fails the process event with it.
    """

    # send/throw and the resume callback are bound once, not per yield; the
    # callback (a self-reference) is dropped when the process finishes.
    __slots__ = ("_generator", "_waiting_on", "_send", "_throw", "_callback")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {type(generator).__name__}")
        self.sim = sim
        self._name = name or None
        self.callbacks = []
        self._state = PENDING
        self._value = None
        self._exception = None
        self._generator = generator
        self._waiting_on: Event | None = None
        self._send = generator.send
        self._throw = generator.throw
        self._callback = self._resume
        # Kick off at the current time, urgently, so spawn order is preserved.
        if sim._fast_resume:
            sim._defer(self._bootstrap)
        else:
            bootstrap = Event(sim, name=f"start:{self.name}")
            bootstrap.callbacks.append(self._callback)
            bootstrap.succeed()

    def _default_name(self) -> str:
        return getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op error; interrupting a
        process blocked on an event detaches it from that event first.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        if self.sim._fast_resume:
            self.sim._defer(lambda: self._throw_in(Interrupt(cause)))
        else:
            interrupt_event = Event(self.sim, name=f"interrupt:{self.name}")
            interrupt_event.callbacks.append(
                lambda _event: self._throw_in(Interrupt(cause))
            )
            interrupt_event.succeed()

    # -- internals --------------------------------------------------------

    def _bootstrap(self) -> None:
        self._resume(_START)

    def _detach(self) -> None:
        if self._waiting_on is not None and self._callback in self._waiting_on.callbacks:
            self._waiting_on.callbacks.remove(self._callback)
        self._waiting_on = None

    def _throw_in(self, exc: BaseException) -> None:
        if self.triggered:
            return
        waited = self._waiting_on
        self._detach()
        # Withdrawable waits (resource requests) must not leak: a process
        # interrupted while queued would otherwise hold its place in line
        # forever; one granted in the same tick would hold the slot itself.
        if waited is not None and hasattr(waited, "withdraw"):
            if not waited.triggered:
                waited.withdraw()
            else:
                resource = getattr(waited, "resource", None)
                if resource is not None:
                    resource.release(waited)
        self._resume(_Outcome(exc))

    def _resume(self, event: Event | _Outcome) -> None:
        """Feed ``event``'s outcome into the generator; wait on what it yields."""
        self._waiting_on = None
        sim = self.sim
        try:
            if event._state == CANCELLED:
                target = self._throw(EventCancelled(event.name))
            elif event._exception is None:
                target = self._send(event._value)
            else:
                target = self._throw(event._exception)
            # A bad target fails the process; the generator stays suspended.
            if not isinstance(target, Event):
                raise TypeError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Events"
                )
            if target.sim is not sim:
                raise RuntimeError("yielded event belongs to a different simulator")
        except StopIteration as stop:
            self._callback = None
            self.succeed(value=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process bodies may raise anything
            self._callback = None
            self.fail(exc)
            return
        self._waiting_on = target
        if target._state == PROCESSED:
            # Already fully fired: resume on the next tick of the loop.
            if sim._fast_resume:
                sim._defer(lambda: self._deferred_resume(target))
            else:
                relay = Event(sim, name=f"relay:{self.name}")
                relay.callbacks.append(lambda _event: self._deferred_resume(target))
                if target._exception is None:
                    relay.succeed(value=target._value)
                else:
                    relay.fail(target._exception)
        else:
            target.callbacks.append(self._callback)

    def _deferred_resume(self, target: Event) -> None:
        # Guards the same-tick resume of an already-processed yield: an
        # interrupt (or a further yield) between scheduling and draining
        # retargets or finishes the process, making this entry stale.
        if self._waiting_on is target:
            self._resume(target)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start:
        Initial simulated time (seconds by convention throughout this repo).
    fast_resume:
        When True (the default) same-tick process resumes use the urgent
        FIFO instead of relay events. Schedules are identical either way;
        the flag exists for differential testing.
    queue:
        Scheduling backend: ``"heap"`` (binary heap, the default) or
        ``"calendar"`` (calendar queue, O(1) amortized at hyperscale).
        ``None`` reads ``REPRO_SIM_QUEUE`` from the environment, falling
        back to the heap. Schedules are byte-identical across backends.
    pool_events:
        When True (the default) fired timeouts with no outside references
        are recycled through a per-simulator free list. Never affects the
        schedule; the flag exists for differential testing.
    """

    def __init__(
        self,
        start: float = 0.0,
        fast_resume: bool = True,
        queue: str | None = None,
        pool_events: bool = True,
    ) -> None:
        if queue is None:
            queue = os.environ.get("REPRO_SIM_QUEUE") or "heap"
        if queue not in ("heap", "calendar"):
            raise ValueError(f"unknown queue backend {queue!r}; use 'heap' or 'calendar'")
        self._now = float(start)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._calendar: CalendarQueue | None = (
            CalendarQueue(start) if queue == "calendar" else None
        )
        self._queue_kind = queue
        self._urgent: deque[tuple[float, int, typing.Callable[[], None]]] = deque()
        self._sequence = 0
        self._spawned = 0
        self._cancelled_in_heap = 0
        self._fast_resume = fast_resume
        self._timeout_pool: list[Timeout] | None = [] if pool_events else None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def queue_backend(self) -> str:
        """The scheduling backend in use: ``"heap"`` or ``"calendar"``."""
        return self._queue_kind

    @property
    def queue_depth(self) -> int:
        """Scheduled entries, live and dead — bounded by queue hygiene."""
        calendar = self._calendar
        return len(self._heap) if calendar is None else len(calendar)

    # -- event construction ------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now.

        Reuses a recycled :class:`Timeout` from the pool when one is
        available; see :meth:`Timeout._run_callbacks` for the recycle rules.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay!r}")
            timeout = pool.pop()
            # Recycled timeouts arrive with a fresh empty callback list and
            # cleared name/value/exception slots; only re-arm the rest.
            # The enqueue is inlined: this is the hottest allocation path in
            # the simulator and the extra call is measurable.
            timeout._state = TRIGGERED
            timeout._value = value
            timeout.delay = delay
            self._sequence += 1
            entry = (self._now + delay, NORMAL, self._sequence, timeout)
            calendar = self._calendar
            if calendar is None:
                heappush(self._heap, entry)
            else:
                calendar.push(entry)
            return timeout
        return Timeout(self, delay, value=value)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a process at the current simulated time."""
        self._spawned += 1
        return Process(self, generator, name=name or f"proc-{self._spawned}")

    # Alias familiar to SimPy users.
    process = spawn

    # -- scheduling ---------------------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        # Callers validate ``delay`` before they change the event's state.
        self._sequence += 1
        calendar = self._calendar
        if calendar is None:
            heappush(self._heap, (self._now + delay, priority, self._sequence, event))
        else:
            calendar.push((self._now + delay, priority, self._sequence, event))

    def _defer(self, fn: typing.Callable[[], None]) -> None:
        """Schedule a same-tick kernel resume without an Event allocation.

        Entries carry the ``(time, sequence)`` the equivalent relay event
        would have had, so the drain order against the heap is unchanged.
        Time never moves backwards, so the FIFO is sorted by construction.
        """
        self._sequence += 1
        self._urgent.append((self._now, self._sequence, fn))

    def _note_cancelled(self) -> None:
        """A scheduled queue entry died; compact when the dead dominate."""
        calendar = self._calendar
        if calendar is not None:
            calendar.note_cancelled()
            return
        self._cancelled_in_heap += 1
        if self._cancelled_in_heap >= 64 and self._cancelled_in_heap * 2 >= len(self._heap):
            # In-place so loops holding a reference to the heap stay valid.
            self._heap[:] = [
                entry for entry in self._heap if entry[3]._state != CANCELLED
            ]
            heapify(self._heap)
            self._cancelled_in_heap = 0

    def _prune(self) -> None:
        """Drop cancelled heads — the single cancelled-event scan."""
        heap = self._heap
        while heap and heap[0][3]._state == CANCELLED:
            heappop(heap)
            self._cancelled_in_heap -= 1

    def _head(self) -> tuple[float, int, int, Event] | None:
        """The minimum live queue entry, pruning dead heads — or ``None``."""
        calendar = self._calendar
        if calendar is not None:
            return calendar.peek()
        self._prune()
        heap = self._heap
        return heap[0] if heap else None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        head = self._head()
        head_time = head[0] if head is not None else _INF
        if self._urgent:
            urgent_time = self._urgent[0][0]
            if urgent_time < head_time:
                return urgent_time
        return head_time

    def step(self) -> None:
        """Process exactly one event."""
        head = self._head()
        urgent = self._urgent
        if urgent:
            entry = urgent[0]
            if head is None or (entry[0], NORMAL, entry[1]) <= head[:3]:
                urgent.popleft()
                self._now = entry[0]
                entry[2]()
                return
        if head is None:
            raise RuntimeError("step() on an empty schedule")
        calendar = self._calendar
        if calendar is None:
            when, _priority, _seq, event = heappop(self._heap)
        else:
            when, _priority, _seq, event = calendar.pop()
        head = None  # drop the entry tuple so the timeout pool's refcount guard holds
        if when < self._now:
            raise RuntimeError("event scheduled in the past; kernel invariant broken")
        self._now = when
        event._run_callbacks()

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run the event loop.

        ``until`` may be:

        - ``None`` — run until no events remain;
        - a number — run until simulated time reaches it;
        - an :class:`Event` — run until that event fires, returning its value
          (or raising its failure).
        """
        target: Event | None = None
        horizon: float | None = None
        if isinstance(until, Event):
            target = until
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"until={horizon} is in the past (now={self._now})")
        if self._calendar is not None:
            return self._run_calendar(target, horizon)
        return self._run_heap(target, horizon)

    def _run_heap(self, target: Event | None, horizon: float | None) -> typing.Any:
        # One inlined drain loop for all three modes: per-event dispatch is
        # the simulator's innermost loop, so heap/urgent/method lookups are
        # bound locally and the cancelled scan happens exactly once per
        # iteration (in the shared prune below).
        heap = self._heap
        urgent = self._urgent
        pop = heappop
        while True:
            if target is not None and target._state == PROCESSED:
                return target.value
            while heap and heap[0][3]._state == CANCELLED:
                pop(heap)
                self._cancelled_in_heap -= 1
            if urgent:
                entry = urgent[0]
                if not heap or (entry[0], NORMAL, entry[1]) <= heap[0][:3]:
                    when = entry[0]
                    if horizon is not None and when > horizon:
                        break
                    urgent.popleft()
                    self._now = when
                    entry[2]()
                    continue
            elif not heap:
                if target is not None:
                    raise RuntimeError(
                        f"simulation ran dry before {target!r} fired (deadlock?)"
                    )
                break
            when, _priority, _seq, event = pop(heap)
            if horizon is not None and when > horizon:
                # Not yet due: put it back and stop at the horizon.
                heappush(heap, (when, _priority, _seq, event))
                break
            self._now = when
            event._run_callbacks()
        if horizon is not None:
            self._now = horizon
        return None

    def _run_calendar(self, target: Event | None, horizon: float | None) -> typing.Any:
        # Calendar drain: peek caches the head bucket, so the peek/pop pair
        # is O(1); a beyond-horizon head simply stays queued (no push-back).
        calendar = self._calendar
        assert calendar is not None
        urgent = self._urgent
        peek = calendar.peek
        pop = calendar.pop
        while True:
            if target is not None and target._state == PROCESSED:
                return target.value
            if not urgent and horizon is None:
                # Fast path: nothing can precede the queue head and there is
                # no horizon to respect, so skip the separate peek.
                try:
                    head = pop()
                except IndexError:
                    if target is not None:
                        raise RuntimeError(
                            f"simulation ran dry before {target!r} fired (deadlock?)"
                        ) from None
                    break
                when = head[0]
                event = head[3]
                # Drop the entry-tuple reference before dispatch so a fired
                # Timeout sees the same ambient refcount as on the heap path
                # (the pool's recycle guard depends on it).
                head = None
                self._now = when
                event._run_callbacks()
                continue
            head = peek()
            if urgent:
                entry = urgent[0]
                if head is None or (entry[0], NORMAL, entry[1]) <= head[:3]:
                    when = entry[0]
                    if horizon is not None and when > horizon:
                        break
                    urgent.popleft()
                    self._now = when
                    entry[2]()
                    continue
            elif head is None:
                if target is not None:
                    raise RuntimeError(
                        f"simulation ran dry before {target!r} fired (deadlock?)"
                    )
                break
            when = head[0]
            if horizon is not None and when > horizon:
                break
            pop()
            event = head[3]
            # Drop the entry-tuple reference before dispatch so a fired
            # Timeout sees the same ambient refcount as on the heap path
            # (the pool's recycle guard depends on it).
            head = None
            self._now = when
            event._run_callbacks()
        if horizon is not None:
            self._now = horizon
        return None
