"""The tracer: span factory and registry on one simulator's clock.

One :class:`Tracer` serves one :class:`~repro.sim.kernel.Simulator`. It
hands out spans (roots via :meth:`start_trace`, children via
``span.child``), records every span it created, and answers structural
queries (children, subtrees) that the analysis layer builds on.

:class:`NullTracer` is the disabled twin: every request returns
:data:`~repro.tracing.span.NULL_SPAN` and nothing is recorded, so a
simulation constructed without tracing pays only a no-op method call at
each instrumentation point.
"""

from __future__ import annotations

import typing

from repro.tracing.span import NULL_SPAN, PHASE_TASK, Span, SpanContext

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Tracer:
    """Creates, clocks, and indexes spans for one simulation."""

    enabled: typing.ClassVar[bool] = True

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._children: dict[int, list[Span]] = {}
        self._next_trace_id = 0
        self._next_span_id = 0
        self._init_store()

    def _init_store(self) -> None:
        """Set up the span store (subclasses swap in bounded retention)."""
        self.spans: list[Span] = []

    @property
    def now(self) -> float:
        return self.sim.now

    # -- span construction ---------------------------------------------------

    def start_trace(
        self,
        name: str,
        phase: str = PHASE_TASK,
        tags: dict[str, typing.Any] | None = None,
    ) -> Span:
        """Open a new root span (a fresh trace id)."""
        self._next_trace_id += 1
        return self._open(name, phase, self._next_trace_id, None, tags)

    def start_span(
        self,
        name: str,
        phase: str = PHASE_TASK,
        parent: Span | None = None,
        tags: dict[str, typing.Any] | None = None,
    ) -> Span:
        """Open a span; with a parent it joins the parent's trace."""
        if parent is None or parent.is_null:
            return self.start_trace(name, phase=phase, tags=tags)
        return self._open(
            name, phase, parent.context.trace_id, parent.context.span_id, tags
        )

    def _open(
        self,
        name: str,
        phase: str,
        trace_id: int,
        parent_id: int | None,
        tags: dict[str, typing.Any] | None,
    ) -> Span:
        self._next_span_id += 1
        span = Span(
            self,
            name,
            phase,
            SpanContext(trace_id=trace_id, span_id=self._next_span_id, parent_id=parent_id),
            start=self.sim.now,
            tags=tags,
        )
        self._store(span)
        if parent_id is not None:
            self._children.setdefault(parent_id, []).append(span)
        return span

    def _store(self, span: Span) -> None:
        self.spans.append(span)

    def _finished(self, span: Span) -> None:
        """Finish hook, called by :meth:`Span.finish` on first close.

        The base tracer retains everything, so nothing happens here;
        :class:`~repro.tracing.sampling.SampledTracer` overrides it to
        seal finished trace trees through the tail sampler.
        """

    # -- structural queries --------------------------------------------------

    def children(self, span: Span) -> list[Span]:
        return list(self._children.get(span.context.span_id, ()))

    def subtree(self, root: Span) -> list[Span]:
        """``root`` and all its descendants, preorder."""
        out: list[Span] = []
        stack = [root]
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(reversed(self._children.get(span.context.span_id, ())))
        return out

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.context.parent_id is None]

    def finished(self) -> list[Span]:
        return [span for span in self.spans if span.finished]

    def open_spans(self) -> list[Span]:
        return [span for span in self.spans if not span.finished]

    def clear(self) -> None:
        """Forget all recorded spans (long-running sweeps between points)."""
        self.spans.clear()
        self._children.clear()


class NullTracer:
    """Tracing disabled: every span request yields the inert singleton."""

    enabled: typing.ClassVar[bool] = False
    spans: tuple[Span, ...] = ()  # immutable: shared by every instance

    def start_trace(self, name: str, phase: str = PHASE_TASK, tags=None):
        return NULL_SPAN

    def start_span(self, name: str, phase: str = PHASE_TASK, parent=None, tags=None):
        return NULL_SPAN

    def children(self, span) -> list:
        return []

    def subtree(self, root) -> list:
        return []

    def roots(self) -> list:
        return []

    def finished(self) -> list:
        return []

    def open_spans(self) -> list:
        return []

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()


def plane_seconds_from_span(root: Span, plane: str) -> float:
    """Sum of successful operation-phase span durations on one plane.

    Operation phases (:func:`repro.operations.base.phase`) stamp their
    spans with a ``plane`` tag; this sums them over ``root``'s subtree.
    It is the span-side accounting that
    :meth:`repro.traces.records.TraceRecord.from_task` cross-checks
    against the task's own phase list. Error-marked spans are excluded to
    mirror task phase accounting (a failed phase body appends nothing).
    """
    tracer = root.tracer
    total = 0.0
    for span in tracer.subtree(root):
        if span.finished and span.ok and span.tags.get("plane") == plane:
            total += span.duration
    return total
