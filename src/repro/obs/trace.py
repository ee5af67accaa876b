"""Structured per-query tracing with Chrome ``trace_event`` export.

A :class:`QueryTrace` collects :class:`Span` records thread-safely for one
query execution.  Producers throughout the stack follow one rule that keeps
tracing near-zero-cost when disabled: *every* instrumentation site guards on
``trace is None``, so a non-profiled run pays only a handful of ``is None``
checks.

Ambient attribution: the scheduler activates the current task's span in a
thread-local (:func:`activate`) while the task executes, so deeper layers
(``NetworkSimulator.ship``, ``ExecutionContext.engine_call``) can attach
events and attributes to *whichever* span is running without any plumbing —
and without cross-query leakage, because attachment helpers verify
``span.trace is self`` before touching a span that might belong to another
session's query.

Timeline semantics: all timestamps are ``time.perf_counter()`` seconds
relative to the trace's ``_origin``, so spans from different threads share
one monotonic timeline and export cleanly to Chrome's ``about:tracing`` /
Perfetto JSON (microsecond ``ts``/``dur``, one synthetic tid per topology
node).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "QueryTrace",
    "Span",
    "SpanEvent",
    "activate",
    "current_span",
]


class SpanEvent:
    """An instantaneous annotation inside a span (transfer, fault, ...)."""

    __slots__ = ("name", "at", "attrs")

    def __init__(self, name: str, at: float, attrs: Dict[str, Any]):
        self.name = name
        self.at = at
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanEvent({self.name!r}, at={self.at:.6f}, attrs={self.attrs!r})"


class Span:
    """One timed unit of work (a DAG task attempt, a plan stage, a run)."""

    __slots__ = (
        "trace",
        "span_id",
        "parent_id",
        "name",
        "kind",
        "node",
        "start",
        "end",
        "status",
        "attrs",
        "events",
    )

    def __init__(
        self,
        trace: "QueryTrace",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        node: str,
        start: float,
        attrs: Dict[str, Any],
    ):
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        #: "ok" | "retried" | "aborted"; None while the span is open.
        self.status: Optional[str] = None
        self.attrs = attrs
        self.events: List[SpanEvent] = []

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.duration * 1e3:.2f}ms" if self.finished else "open"
        return f"Span(#{self.span_id} {self.name!r} kind={self.kind} {state})"


# --- ambient current-span (thread-local) -----------------------------------

_ambient = threading.local()


def current_span() -> Optional[Span]:
    """The span activated on this thread, or None.

    This is the single hook deep layers use for ambient attribution; when
    tracing is off nothing ever activates a span, so this returns None at
    the cost of one thread-local attribute read.
    """
    return getattr(_ambient, "span", None)


@contextmanager
def activate(span: Optional[Span]) -> Iterator[Optional[Span]]:
    """Make ``span`` the thread's current span for the duration.

    ``activate(None)`` is a no-op context, so callers can activate
    unconditionally with whatever span they hold (``None`` untraced).
    """
    if span is None:
        yield None
        return
    previous = getattr(_ambient, "span", None)
    _ambient.span = span
    try:
        yield span
    finally:
        _ambient.span = previous


class QueryTrace:
    """Thread-safe span collection for a single query execution."""

    def __init__(self, query_id: str = ""):
        self.query_id = query_id
        self._lock = threading.Lock()
        self._origin = time.perf_counter()
        self._ids = itertools.count(1)
        self.spans: List[Span] = []

    # --- recording ---------------------------------------------------------

    def now(self) -> float:
        """Seconds since this trace's origin (monotonic)."""
        return time.perf_counter() - self._origin

    def begin(
        self,
        name: str,
        kind: str = "task",
        node: str = "",
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span.  Auto-parents under the thread's current span when
        that span belongs to *this* trace (never across sessions)."""
        if parent is None:
            ambient = current_span()
            if ambient is not None and ambient.trace is self:
                parent = ambient
        start = self.now()
        with self._lock:
            span = Span(
                self,
                next(self._ids),
                parent.span_id if parent is not None else None,
                name,
                kind,
                node,
                start,
                attrs,
            )
            self.spans.append(span)
        return span

    def finish(self, span: Span, status: str = "ok") -> Span:
        span.end = self.now()
        span.status = status
        return span

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "task",
        node: str = "",
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open, activate, and finish a span around a block.

        The span finishes "aborted" if the block raises, "ok" otherwise
        (unless the block already finished it, e.g. as "retried").
        """
        opened = self.begin(name, kind=kind, node=node, parent=parent, **attrs)
        try:
            with activate(opened):
                yield opened
        except BaseException:
            if not opened.finished:
                self.finish(opened, status="aborted")
            raise
        else:
            if not opened.finished:
                self.finish(opened, status="ok")

    def add_event(self, span: Span, name: str, **attrs: Any) -> SpanEvent:
        event = SpanEvent(name, self.now(), attrs)
        with self._lock:
            span.events.append(event)
        return event

    # --- queries -----------------------------------------------------------

    def find(self, **attrs: Any) -> List[Span]:
        """Spans whose attrs (or name/kind/node/status) match every filter."""
        out = []
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            for key, wanted in attrs.items():
                if key in ("name", "kind", "node", "status"):
                    have = getattr(span, key)
                else:
                    have = span.attrs.get(key)
                if have != wanted:
                    break
            else:
                out.append(span)
        return out

    def by_kind(self, kind: str) -> List[Span]:
        return self.find(kind=kind)

    def roots(self) -> List[Span]:
        return [span for span in self.snapshot() if span.parent_id is None]

    def snapshot(self) -> List[Span]:
        with self._lock:
            return list(self.spans)

    def wall_seconds(self) -> float:
        """Span of the whole trace: earliest start to latest end."""
        spans = [span for span in self.snapshot() if span.finished]
        if not spans:
            return 0.0
        return max(span.end for span in spans) - min(span.start for span in spans)

    def busy_seconds(self, kind: str = "task") -> float:
        return sum(span.duration for span in self.by_kind(kind) if span.finished)

    # --- Chrome trace_event export -----------------------------------------

    def to_chrome_events(self) -> List[Dict[str, Any]]:
        """Render spans as Chrome ``trace_event`` objects.

        One synthetic thread per topology node (named via ``M`` metadata
        events), complete ``X`` duration events for spans, instant ``i``
        events for span events.  Times are microseconds from the trace
        origin.  Unfinished spans (e.g. a hung task the scheduler abandoned)
        are exported with zero duration and ``"status": "unfinished"`` so
        they remain visible rather than silently dropped.
        """
        spans = self.snapshot()
        nodes = sorted({span.node or "(coordinator)" for span in spans})
        tids = {node: index + 1 for index, node in enumerate(nodes)}
        events: List[Dict[str, Any]] = []
        for node, tid in tids.items():
            events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": node},
                }
            )
        for span in spans:
            tid = tids[span.node or "(coordinator)"]
            args = {"span_id": span.span_id, "kind": span.kind}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args["status"] = span.status if span.status is not None else "unfinished"
            args.update(span.attrs)
            duration = span.duration if span.finished else 0.0
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "name": span.name,
                    "cat": span.kind,
                    "ts": round(span.start * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "args": args,
                }
            )
            for event in span.events:
                events.append(
                    {
                        "ph": "i",
                        "pid": 1,
                        "tid": tid,
                        "name": event.name,
                        "cat": span.kind,
                        "ts": round(event.at * 1e6, 3),
                        "s": "t",
                        "args": dict(event.attrs),
                    }
                )
        return events

    def to_chrome(self, path: Any) -> None:
        """Write Chrome ``trace_event`` JSON; open in about:tracing/Perfetto."""
        payload = {
            "traceEvents": self.to_chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {"query_id": self.query_id},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"QueryTrace({self.query_id!r}, spans={len(self.spans)})"
