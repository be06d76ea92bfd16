"""Span-based request tracing, propagated through the JSON wire envelope.

A **trace** is one logical request as seen from its edge — a CLI call, a
client round trip, a router fan-out — and a **span** is one timed step
inside it (an HTTP hop, a plan execution, one shard of a scatter).  Spans
carry monotonic-clock timings (comparable only within one process) plus the
parent links that stitch the tree together across processes.

Design rules, in priority order:

1. **Zero cost when off.**  Nothing here allocates, locks or reads a clock
   unless the request context (:mod:`repro.observability.context`) holds
   a trace; :func:`span` is a single context read on the disabled path.
   The serving layers call it unconditionally, so this property is what
   keeps the benchmark speedups (e14/e16/e17) intact.
2. **Wire-envelope propagation.**  The trace context travels as an extra
   ``"trace"`` key on the request envelope and the recorded spans come back
   as a ``"trace"`` key on the response envelope.  ``parse_wire`` filters
   unknown keys against the message schema, so a pre-telemetry peer ignores
   both harmlessly — tracing needs no protocol version bump.
3. **Explicit thread handoff.**  The request context does not cross pool
   threads by itself; the router and the batch pool wrap their fan-out
   tasks in :func:`repro.observability.context.carry`, which carries the
   trace and the current span id, so pooled spans nest under the caller's.

Typical edge usage::

    with tracing.trace("client query") as active:
        response = client.query("db", "(x) . P(x)")
    print(tracing.render_trace(active))
"""

from __future__ import annotations

import contextlib
import secrets
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.observability.context import CURRENT, current, scope

__all__ = [
    "Span",
    "Trace",
    "adopt",
    "current_trace",
    "current_span_id",
    "render_trace",
    "span",
    "trace",
]


def _new_id() -> str:
    return secrets.token_hex(8)


@dataclass
class Span:
    """One timed step of a trace.

    ``start`` is a ``time.monotonic()`` reading — meaningful for ordering
    and subtraction *within one process only*; cross-process stitching uses
    the parent links, never the clocks.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    duration: float = 0.0
    attributes: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        payload = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration_us": int(self.duration * 1_000_000),
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]) -> "Span | None":
        """Best-effort parse of one wire span; ``None`` for malformed input.

        Tolerant by design: a span dropped from a remote peer's telemetry
        must never fail the request that carried it.
        """
        if not isinstance(payload, Mapping):
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        name = payload.get("name")
        if not (isinstance(trace_id, str) and isinstance(span_id, str) and isinstance(name, str)):
            return None
        parent = payload.get("parent_id")
        attributes = payload.get("attributes")
        duration_us = payload.get("duration_us")
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent if isinstance(parent, str) else None,
            name=name,
            start=float(payload.get("start", 0.0)) if isinstance(payload.get("start", 0.0), (int, float)) else 0.0,
            duration=(duration_us / 1_000_000) if isinstance(duration_us, (int, float)) else 0.0,
            attributes=dict(attributes) if isinstance(attributes, Mapping) else {},
        )


class Trace:
    """A thread-safe collector of spans sharing one trace id.

    Created at the edge by :func:`trace`, or server-side by :func:`adopt`
    when a request envelope carries a trace context.  ``parent_span_id``
    (server side) is the remote caller's span the local root spans hang off
    — the server scopes it as the context's ``span_id`` — so the
    cross-process tree has no gaps.
    """

    def __init__(self, trace_id: str | None = None, parent_span_id: str | None = None) -> None:
        self.trace_id = trace_id or _new_id()
        self.parent_span_id = parent_span_id
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    @property
    def spans(self) -> tuple[Span, ...]:
        with self._lock:
            return tuple(self._spans)

    def wire_context(self) -> dict:
        """The request-envelope form: trace id plus the caller's current span."""
        return {"id": self.trace_id, "span": current_span_id() or self.parent_span_id}

    def to_wire(self) -> dict:
        """The response-envelope form: every span recorded so far."""
        return {"id": self.trace_id, "spans": [span.to_wire() for span in self.spans]}

    def absorb(self, payload: object) -> int:
        """Fold a remote peer's returned spans in; returns how many were added.

        Only spans carrying *this* trace's id are accepted — a confused or
        stale peer cannot pollute the tree.  Malformed entries are skipped.
        """
        if not isinstance(payload, Mapping) or payload.get("id") != self.trace_id:
            return 0
        spans = payload.get("spans")
        if not isinstance(spans, (list, tuple)):
            return 0
        added = 0
        for item in spans:
            parsed = Span.from_wire(item)
            if parsed is not None and parsed.trace_id == self.trace_id:
                self.record(parsed)
                added += 1
        return added

    def tree(self) -> list[dict]:
        """The spans as a forest of nested dicts (children ordered by start).

        Spans whose parent is unknown locally (or ``None``) become roots —
        on the edge process, after absorbing every hop's spans, that is
        exactly the root span of the whole request.
        """
        spans = self.spans
        by_id = {span.span_id: {"span": span, "children": []} for span in spans}
        roots = []
        for span in spans:
            node = by_id[span.span_id]
            parent = by_id.get(span.parent_id) if span.parent_id else None
            if parent is not None and parent is not node:
                parent["children"].append(node)
            else:
                roots.append(node)
        def order(nodes):
            nodes.sort(key=lambda item: (item["span"].start, item["span"].span_id))
            for item in nodes:
                order(item["children"])
        order(roots)
        return roots


def current_trace() -> Trace | None:
    """The request's trace, if any (the disabled-path check)."""
    return current().trace


def current_span_id() -> str | None:
    """The open span new spans nest under (``None`` at a trace's root)."""
    return current().span_id


@contextlib.contextmanager
def span(name: str, **attributes) -> Iterator[Span | None]:
    """Record one timed span under the request's trace; a no-op without one.

    Yields the :class:`Span` (so callers may add attributes or read its id)
    or ``None`` when tracing is off — callers on hot paths never pay more
    than the one context read that said so.  The span is the context's
    ``span_id`` for the block, set and reset here directly.
    """
    context = CURRENT.get()
    active = context.trace
    if active is None:
        yield None
        return
    record = Span(
        trace_id=active.trace_id,
        span_id=_new_id(),
        parent_id=context.span_id,
        name=name,
        start=time.monotonic(),
        attributes=dict(attributes),
    )
    token = CURRENT.set(context._replace(span_id=record.span_id))
    try:
        yield record
    finally:
        record.duration = time.monotonic() - record.start
        CURRENT.reset(token)
        active.record(record)


@contextlib.contextmanager
def trace(name: str, **attributes) -> Iterator[Trace]:
    """Start a fresh trace with a root span *name*; the edge entry point."""
    active = Trace()
    with scope(trace=active, span_id=None):
        with span(name, **attributes):
            yield active


def adopt(payload: object) -> Trace | None:
    """Server-side: a :class:`Trace` for a request envelope's trace context.

    Returns ``None`` (tracing stays off) unless the payload looks like the
    ``{"id": ..., "span": ...}`` context :meth:`Trace.wire_context` emits.
    """
    if not isinstance(payload, Mapping):
        return None
    trace_id = payload.get("id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    parent = payload.get("span")
    return Trace(trace_id=trace_id, parent_span_id=parent if isinstance(parent, str) else None)


def render_trace(active: Trace) -> str:
    """Indented text rendering of a trace tree (CLI / debugging aid)."""
    lines = [f"trace {active.trace_id} ({len(active.spans)} spans)"]

    def walk(node: dict, indent: int) -> None:
        item: Span = node["span"]
        pad = "  " * indent
        extra = ""
        if item.attributes:
            extra = "  " + " ".join(f"{key}={value}" for key, value in sorted(item.attributes.items()))
        lines.append(f"{pad}- {item.name}  {item.duration * 1000:.3f}ms{extra}")
        for child in node["children"]:
            walk(child, indent + 1)

    for root in active.tree():
        walk(root, 1)
    return "\n".join(lines)
