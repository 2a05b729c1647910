"""The disabled attachments' empty containers are immutable.

``NullJournal``, ``NullTracer`` and ``NullTelemetry`` expose their empty
state as class attributes, so every instance shares one object. A mutable
empty there would let one caller's write show up through every other
instance (including the module-wide singletons).
"""

import pytest

from repro.controlplane.recovery import NULL_JOURNAL, NullJournal
from repro.telemetry.metrics import NULL_TELEMETRY, NullTelemetry
from repro.tracing.tracer import NULL_TRACER, NullTracer

CONTAINERS = [
    (NullJournal, NULL_JOURNAL, "records"),
    (NullTracer, NULL_TRACER, "spans"),
    (NullTelemetry, NULL_TELEMETRY, "families"),
    (NullTelemetry, NULL_TELEMETRY, "probes"),
    (NullTelemetry, NULL_TELEMETRY, "rollups"),
]


def _mutations(container):
    if hasattr(container, "keys"):
        yield lambda: container.__setitem__("leak", object())
        yield lambda: container.update(leak=object())
        yield lambda: container.setdefault("leak", object())
    else:
        yield lambda: container.append(object())
        yield lambda: container.extend([object()])
        yield lambda: container.insert(0, object())


@pytest.mark.parametrize(
    ("cls", "singleton", "attr"),
    CONTAINERS,
    ids=[f"{cls.__name__}.{attr}" for cls, _, attr in CONTAINERS],
)
def test_one_instance_cannot_mutate_what_another_sees(cls, singleton, attr):
    first, second = cls(), cls()
    for mutate in _mutations(getattr(first, attr)):
        with pytest.raises((AttributeError, TypeError)):
            mutate()
    for instance in (first, second, singleton):
        assert len(getattr(instance, attr)) == 0
