"""Nested span tracing for long-running build phases.

The RoadPart index build is a pipeline (bridge self-join → contour walk
→ ℓ labelling rounds → region assembly) whose rounds themselves break
into cut computation, zone flooding and pocket ray-casting.  A flat
stopwatch cannot show *where inside a round* the time goes;
:class:`TraceRecorder` records a tree of spans instead:

>>> from repro.obs.trace import TraceRecorder
>>> trace = TraceRecorder()
>>> with trace.span("labeling"):
...     with trace.span("round-0"):
...         pass
>>> trace.spans[0].label, trace.spans[0].children[0].label
('labeling', 'round-0')

Instrumented code may either receive a recorder explicitly
(``build_index(..., trace=recorder)``) or use the module-level
:func:`span` helper, which targets whatever recorder :func:`use` has
activated -- by default the no-op :data:`NULL_TRACE`, so un-activated
spans cost one method call and no clock read.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed region; ``children`` are the spans opened inside it."""

    label: str
    seconds: float = 0.0
    children: List["Span"] = field(default_factory=list)

    def to_dict(self) -> Dict:
        out: Dict = {"label": self.label, "seconds": self.seconds}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class _SpanContext:
    __slots__ = ("_recorder", "_span", "_start")

    def __init__(self, recorder: "TraceRecorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span
        self._start = 0.0

    def __enter__(self) -> Span:
        self._recorder._stack.append(self._span)
        self._start = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.seconds = time.perf_counter() - self._start
        self._recorder._stack.pop()


class TraceRecorder:
    """Collects a tree of :class:`Span` objects via nested contexts."""

    def __init__(self) -> None:
        self.root = Span("root")
        self._stack: List[Span] = [self.root]

    @property
    def spans(self) -> List[Span]:
        """The top-level spans recorded so far."""
        return self.root.children

    def span(self, label: str) -> _SpanContext:
        """Open a span nested under the currently active one."""
        new = Span(label)
        self._stack[-1].children.append(new)
        return _SpanContext(self, new)

    def attach(self, span_: Span) -> None:
        """Splice an already-timed span (e.g. recorded in a worker
        process and shipped back) under the currently active span."""
        self._stack[-1].children.append(span_)

    def find(self, label: str) -> Optional[Span]:
        """Return the first span with ``label`` (depth-first), or None."""
        for span_ in self.root.walk():
            if span_.label == label:
                return span_
        return None

    def to_dict(self) -> Dict:
        return {"spans": [s.to_dict() for s in self.spans]}

    def render(self) -> str:
        """Render the span tree with two-space indentation per level."""
        lines: List[str] = []

        def emit(span_: Span, depth: int) -> None:
            lines.append(f"{'  ' * depth}{span_.label:<24}"
                         f" {span_.seconds:.6f}s")
            for child in span_.children:
                emit(child, depth + 1)

        for top in self.spans:
            emit(top, 0)
        return "\n".join(lines)


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpanContext()


class NullTraceRecorder(TraceRecorder):
    """Disabled tracing: spans are no-op contexts, nothing is stored."""

    def __init__(self) -> None:
        super().__init__()

    def span(self, label: str) -> _NullSpanContext:  # type: ignore[override]
        return _NULL_SPAN

    def attach(self, span_: Span) -> None:
        pass


#: The process-wide disabled-trace singleton.
NULL_TRACE = NullTraceRecorder()

#: Target of the module-level :func:`span` helper.
_active: TraceRecorder = NULL_TRACE


def span(label: str):
    """Open a span on the currently active recorder (see :func:`use`)."""
    return _active.span(label)


def active() -> TraceRecorder:
    """Return the currently active recorder (``NULL_TRACE`` when none)."""
    return _active


@contextmanager
def use(recorder: TraceRecorder) -> Iterator[TraceRecorder]:
    """Activate ``recorder`` for module-level :func:`span` calls within
    the ``with`` block (restores the previous recorder on exit)."""
    global _active
    previous = _active
    _active = recorder
    try:
        yield recorder
    finally:
        _active = previous


def resolve_trace(trace: Optional[TraceRecorder]) -> TraceRecorder:
    """Map None to the no-op singleton (the ``build_index`` idiom)."""
    return NULL_TRACE if trace is None else trace
