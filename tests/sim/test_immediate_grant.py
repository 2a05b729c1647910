"""Differential: a resource's immediate grant equals queue-then-dispatch.

``Resource.request`` grants at once when nobody is queued and a slot is
free, and ``release`` dispatches only when someone waits. The reference
below is the plain protocol — every request queues, every release
dispatches — and random request/release/withdraw/resize scripts must
produce the same grants, in the same order, at the same times, with the
same wait times and the same event sequence numbers on both.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import PriorityResource, Resource, Simulator
from repro.sim.resources import Request


class QueueFirstResource(Resource):
    """Reference: every request queues, every release dispatches."""

    def request(self, priority: float = 0.0) -> Request:
        request = Request(self, priority=priority)
        self._queue.append(request)
        self._dispatch()
        return request

    def release(self, request: Request) -> None:
        if request not in self._users:
            raise RuntimeError(f"release of non-held request on {self.name!r}")
        self._users.discard(request)
        self._dispatch()


class QueueFirstPriorityResource(QueueFirstResource, PriorityResource):
    """Reference priority resource (grants lowest ``priority`` first)."""


REQUEST = st.tuples(st.just("request"), st.sampled_from([0.0, 1.0, 2.0, 5.0]))
STEPS = st.one_of(
    # Requests are drawn three times as often, so queues actually form.
    REQUEST,
    REQUEST,
    REQUEST,
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("withdraw"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("resize"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("wait"), st.sampled_from([0.0, 0.5, 1.0])),
)


def _drive(resource_cls, capacity: int, script) -> dict:
    sim = Simulator()
    resource = resource_cls(sim, capacity=capacity, name="r")
    requests: list[Request] = []
    released: set[int] = set()
    log: list[tuple] = []

    def pick(candidates, index):
        return candidates[index % len(candidates)] if candidates else None

    def run_script():
        for op, arg in script:
            if op == "request":
                request = resource.request(priority=arg)
                number = len(requests)
                requests.append(request)
                request.callbacks.append(
                    lambda _event, n=number: log.append(("granted", n, sim.now))
                )
            elif op == "release":
                held = [
                    n
                    for n, request in enumerate(requests)
                    if request.triggered and n not in released
                ]
                number = pick(held, arg)
                if number is not None:
                    resource.release(requests[number])
                    released.add(number)
            elif op == "withdraw":
                queued = [
                    n
                    for n, request in enumerate(requests)
                    if not request.triggered and not request.cancelled
                ]
                number = pick(queued, arg)
                if number is not None:
                    requests[number].withdraw()
            elif op == "resize":
                resource.resize(arg)
            else:
                yield sim.timeout(arg)
            log.append(
                (op, sim.now, sim._sequence, resource.in_use, resource.queue_depth)
            )

    sim.spawn(run_script(), name="script")
    sim.run()
    return {
        "log": log,
        "wait_times": resource.wait_times,
        "granted_at": [request.granted_at for request in requests],
        "states": [request._state for request in requests],
    }


@settings(max_examples=300, deadline=None)
@example(3, [("request", 0.0)] * 4 + [("release", 0), ("wait", 0.0)], False)
@example(2, [("request", 2.0), ("request", 1.0), ("request", 5.0), ("request", 1.0),
             ("withdraw", 0), ("resize", 3), ("release", 1)], True)
@given(
    capacity=st.integers(min_value=1, max_value=3),
    script=st.lists(STEPS, max_size=60),
    priority=st.booleans(),
)
def test_immediate_grant_matches_queue_then_dispatch(capacity, script, priority):
    if priority:
        fast, reference = PriorityResource, QueueFirstPriorityResource
    else:
        fast, reference = Resource, QueueFirstResource
    assert _drive(fast, capacity, script) == _drive(reference, capacity, script)


def test_uncontended_request_is_granted_on_the_spot():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    first = resource.request()
    second = resource.request()
    assert first.triggered and first.granted_at == 0.0
    assert not second.triggered and resource.queue_depth == 1
    assert resource.wait_times == [0.0]
