"""Span tracing for discovery runs (`repro.obs`, pillar 1).

A :class:`Tracer` records *spans* — named wall-clock intervals with a
parent link — for the phases of a discovery run: run → level → phase
(candidate-gen / partition-product / oc-submit / ofd-batch / oc-harvest /
memo-repair).  Parenting is contextvar-based inside one process
(``with tracer.span(...)`` nests automatically); spans that must outlive a
generator frame (the run and level spans of the streaming engine) are
managed explicitly via :meth:`Tracer.start_span` / :meth:`Tracer.end_span`
with an explicit ``parent``.

Zero-cost-when-off: the process default is :data:`NOOP_TRACER`, whose
``span()`` returns one shared no-op context manager and whose ``enabled``
flag gates every non-trivial instrumentation site.  Enabling tracing
(``repro discover --trace out.json``, or :func:`set_tracer` /
:func:`use_tracer` in code) never changes results — only observes them.

All span timestamps are ``time.time()`` wall-clock seconds, exported
relative to the tracer's creation.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: The active span id of the current (thread / task) context.  Shared by
#: every Tracer instance: at most one tracer is installed at a time.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Span:
    """One named wall-clock interval with a parent link (``end`` is
    ``None`` while the span is open)."""

    __slots__ = ("span_id", "name", "parent_id", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, parent_id: Optional[int],
                 start: float, attrs: Dict[str, object]) -> None:
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, dur={self.duration:.6f}s)")


def _parent_id(parent) -> Optional[int]:
    """Normalise a ``parent`` argument (Span, id, or None) to an id."""
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.span_id
    return int(parent)


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_token", "span")

    def __init__(self, tracer: "Tracer", name: str, parent,
                 attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self._token = None
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        parent = _parent_id(self._parent)
        if parent is None:
            parent = _CURRENT.get()
        self.span = self._tracer._begin(self._name, parent, self._attrs)
        self._token = _CURRENT.set(self.span.span_id)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        self._tracer._finish(self.span)
        return False


class Tracer:
    """Collects spans; exports a Chrome-trace / Perfetto JSON timeline."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 1
        #: Wall-clock origin of the trace; exported timestamps are relative
        #: to it so the numbers stay small and zero-anchored.
        self.epoch = time.time()

    # -- recording ---------------------------------------------------------------

    def _begin(self, name: str, parent_id: Optional[int],
               attrs: Dict[str, object]) -> Span:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(span_id, name, parent_id, time.time(), attrs)

    def _finish(self, span: Span) -> None:
        span.end = time.time()
        with self._lock:
            self._spans.append(span)

    def span(self, name: str, parent=None, **attrs) -> _SpanContext:
        """Context manager: a span parented to ``parent`` (or the current
        contextvar span), active — and visible to
        :meth:`current_span_id` — inside the ``with`` block."""
        return _SpanContext(self, name, parent, attrs)

    def start_span(self, name: str, parent=None, **attrs) -> Span:
        """Open a span *without* touching the context (generator frames)."""
        return self._begin(name, _parent_id(parent), attrs)

    def end_span(self, span: Optional[Span]) -> None:
        """Close a span opened by :meth:`start_span` (``None`` tolerated)."""
        if span is not None and span.end is None:
            self._finish(span)

    def record_span(self, name: str, start: float, end: float, parent=None,
                    **attrs) -> Span:
        """Record an already-elapsed interval (e.g. a partition build
        noticed after the fact).  Returns the recorded span so callers can
        parent further spans under it."""
        span = self._begin(name, _parent_id(parent), attrs)
        span.start = start
        span.end = end
        with self._lock:
            self._spans.append(span)
        return span

    def current_span_id(self) -> Optional[int]:
        """The contextvar-active span id (``None`` outside any span)."""
        return _CURRENT.get()

    # -- introspection / export --------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """Snapshot of every completed span, in completion order."""
        with self._lock:
            return list(self._spans)

    def chrome_trace(self) -> Dict[str, object]:
        """The trace in Chrome trace-event format (Perfetto-compatible).

        One ``X`` (complete) event per span, all on the coordinator's
        track (tid 0).  Parent links travel in ``args``
        (``span_id`` / ``parent_id``) — the timeline nests by containment,
        the ids make the exact tree machine-checkable.
        """
        pid = os.getpid()
        events: List[Dict[str, object]] = [
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": "repro"}},
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
             "args": {"name": "coordinator"}},
        ]
        for span in self.finished_spans():
            args: Dict[str, object] = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append({
                "ph": "X", "cat": "repro", "name": span.name,
                "pid": pid, "tid": 0,
                "ts": round((span.start - self.epoch) * 1e6, 3),
                "dur": round(max(span.duration, 0.0) * 1e6, 3),
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self, path) -> int:
        """Write the Chrome-trace JSON to ``path``; returns the span count."""
        trace = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=1)
            handle.write("\n")
        return len(self.finished_spans())


class _NoopSpanContext:
    """Shared do-nothing context manager (the off path's only cost)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_CONTEXT = _NoopSpanContext()


class NoopTracer:
    """The zero-cost default: every method is a constant-time no-op."""

    enabled = False

    def span(self, name, parent=None, **attrs) -> _NoopSpanContext:
        return _NOOP_CONTEXT

    def start_span(self, name, parent=None, **attrs) -> None:
        return None

    def end_span(self, span) -> None:
        return None

    def record_span(self, name, start, end, parent=None, **attrs) -> None:
        return None

    def current_span_id(self) -> None:
        return None

    def finished_spans(self) -> List[Span]:
        return []


#: The process-wide default tracer (never replaced, only shadowed).
NOOP_TRACER = NoopTracer()

_tracer = NOOP_TRACER


def get_tracer():
    """The currently-installed tracer (:data:`NOOP_TRACER` by default)."""
    return _tracer


def set_tracer(tracer) -> object:
    """Install ``tracer`` process-wide; returns the previous tracer."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NOOP_TRACER
    return previous


@contextmanager
def use_tracer(tracer):
    """Scoped :func:`set_tracer`: restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
