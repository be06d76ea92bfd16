"""Structured, schema-versioned event log — the forensic record.

The metrics registry (PR 6) answers "how many breaker trips happened?";
it cannot answer "*which request* tripped the breaker, and why?".  This
module records every such decision as a **structured event**: a small
JSON-serializable mapping stamped with the active trace/span ids, a
monotonically increasing sequence number, a wall-clock timestamp, a level
and a kind, plus free-form attributes.  Decision points that were
previously only counters — admission sheds, breaker trips and heals,
retry rounds, failovers, degraded serves, deadline expiries, plan-cache
invalidations, cursor evictions, warm-up skips —
emit one event each, so a chaos run leaves a correlatable, durable record
of what the resilience layer actually did.

Design rules (same priority order as tracing and deadlines):

1. **Bounded memory.**  The in-process log is a fixed-capacity ring
   (``collections.deque(maxlen=...)``): old events fall off the end, the
   process can never OOM on its own telemetry.
2. **Rate limited.**  A per-second window caps how many events are
   recorded; bursts beyond the cap are *counted*, and a single
   ``events.dropped`` summary event is emitted when the window rolls —
   the log degrades to a sampled record instead of amplifying an
   overload.
3. **Optionally durable.**  ``REPRO_EVENT_LOG=/path/to/events.ndjson``
   (or an explicit sink) appends each record as one JSON line, so the
   evidence survives the process.

Every record carries ``"schema": "repro-event/v1"`` and validates against
:func:`validate_event`; the CI events-schema check holds emission sites
to exactly this contract.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Iterator, Mapping

from repro.observability import tracing

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_SINK_ENV",
    "LEVELS",
    "EventLog",
    "default_log",
    "emit",
    "reset_default_log",
    "validate_event",
]

EVENT_SCHEMA = "repro-event/v1"

#: When set, the default log appends one JSON line per event to this path.
EVENT_SINK_ENV = "REPRO_EVENT_LOG"

LEVELS = ("debug", "info", "warning", "error")

DEFAULT_CAPACITY = 1024
DEFAULT_RATE_LIMIT_PER_SECOND = 500

#: Attribute values must round-trip through JSON; anything else is
#: coerced to ``repr`` at emission time so a bad call site degrades to an
#: ugly string instead of a crashed request.
_JSON_SCALARS = (str, int, float, bool, type(None))


def _clean_value(value: object) -> object:
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_clean_value(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _clean_value(item) for key, item in value.items()}
    return repr(value)


class EventLog:
    """A thread-safe, bounded, rate-limited structured event ring."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        rate_limit_per_second: int = DEFAULT_RATE_LIMIT_PER_SECOND,
        sink_path: str | None = None,
        clock=time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("an event log needs capacity for at least one event")
        if rate_limit_per_second < 1:
            raise ValueError("rate_limit_per_second must be >= 1")
        self.capacity = capacity
        self.rate_limit_per_second = rate_limit_per_second
        self.sink_path = sink_path
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._sequence = 0
        self._emitted = 0
        self._dropped = 0
        self._window_start = clock()
        self._window_count = 0
        self._window_dropped = 0
        self._sink_file = None

    # Emission -------------------------------------------------------------------

    def emit(self, kind: str, level: str = "info", **attributes: object) -> dict | None:
        """Record one event; returns the record, or ``None`` if suppressed.

        The trace and span ids are read from the calling thread's active
        trace, so events emitted while serving a request correlate with
        its spans without any plumbing at the call site.
        """
        if level not in LEVELS:
            level = "info"
        now = self._clock()
        with self._lock:
            summary = self._roll_window(now)
            if summary is not None:
                self._record(summary)
            if self._window_count >= self.rate_limit_per_second:
                self._dropped += 1
                self._window_dropped += 1
                return None
            self._window_count += 1
            record = self._build(kind, level, attributes)
            self._record(record)
        return record

    def _roll_window(self, now: float) -> dict | None:
        """Caller holds the lock.  Returns a drop-summary record to log."""
        if now - self._window_start < 1.0:
            return None
        dropped = self._window_dropped
        self._window_start = now
        self._window_count = 1 if dropped else 0  # the summary spends one slot
        self._window_dropped = 0
        if not dropped:
            return None
        return self._build(
            "events.dropped",
            "warning",
            {"dropped": dropped, "rate_limit_per_second": self.rate_limit_per_second},
        )

    def _build(self, kind: str, level: str, attributes: Mapping[str, object]) -> dict:
        self._sequence += 1
        trace = tracing.current_trace()
        record: dict = {
            "schema": EVENT_SCHEMA,
            "seq": self._sequence,
            "ts": time.time(),
            "kind": str(kind),
            "level": level,
            "trace_id": trace.trace_id if trace is not None else None,
            "span_id": tracing.current_span_id(),
            "attributes": {str(key): _clean_value(value) for key, value in attributes.items()},
        }
        return record

    def _record(self, record: dict) -> None:
        """Caller holds the lock: ring append plus best-effort sink write."""
        self._ring.append(record)
        self._emitted += 1
        if self.sink_path is None:
            return
        try:
            if self._sink_file is None:
                self._sink_file = open(self.sink_path, "a", encoding="utf-8")
            self._sink_file.write(json.dumps(record, sort_keys=True) + "\n")
            self._sink_file.flush()
        except OSError:
            # Telemetry must never take a request down: a full disk or a
            # removed directory degrades to in-memory-only logging.
            self._sink_file = None
            self.sink_path = None

    # Introspection --------------------------------------------------------------

    def tail(self, limit: int | None = None, trace_id: str | None = None) -> list[dict]:
        """The most recent events, oldest first, optionally one trace's."""
        with self._lock:
            records = list(self._ring)
        if trace_id is not None:
            records = [record for record in records if record.get("trace_id") == trace_id]
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records

    def stats(self) -> dict:
        with self._lock:
            return {
                "emitted": self._emitted,
                "dropped": self._dropped,
                "capacity": self.capacity,
                "rate_limit_per_second": self.rate_limit_per_second,
                "buffered": len(self._ring),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.tail())

    def close(self) -> None:
        with self._lock:
            if self._sink_file is not None:
                try:
                    self._sink_file.close()
                except OSError:  # pragma: no cover - close failure is ignorable
                    pass
                self._sink_file = None


# The process-wide default log -----------------------------------------------------

_default_lock = threading.Lock()
_default: EventLog | None = None


def default_log() -> EventLog:
    """The process-wide event log (created on first use).

    The sink path is read from ``REPRO_EVENT_LOG`` at creation time, so a
    server launched with the variable set logs durably for its lifetime.
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = EventLog(sink_path=os.environ.get(EVENT_SINK_ENV) or None)
        return _default


def reset_default_log() -> None:
    """Drop the default log (tests re-read ``REPRO_EVENT_LOG`` this way)."""
    global _default
    with _default_lock:
        if _default is not None:
            _default.close()
        _default = None


def emit(kind: str, level: str = "info", **attributes: object) -> dict | None:
    """Emit on the process-wide default log (the standard call site form)."""
    return default_log().emit(kind, level, **attributes)


# Schema validation ----------------------------------------------------------------

_REQUIRED_FIELDS = ("schema", "seq", "ts", "kind", "level", "trace_id", "span_id", "attributes")


def validate_event(payload: object) -> None:
    """Raise ``ValueError`` unless *payload* is a schema-valid v1 event.

    This is the contract the events-schema tests enforce on every emission
    site: they route real traffic through the emitting code and validate
    everything that lands in the log and in the NDJSON sink.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"event must be a mapping, got {type(payload).__name__}")
    missing = [field for field in _REQUIRED_FIELDS if field not in payload]
    if missing:
        raise ValueError(f"event is missing required fields: {', '.join(missing)}")
    if payload["schema"] != EVENT_SCHEMA:
        raise ValueError(f"unknown event schema {payload['schema']!r} (expected {EVENT_SCHEMA!r})")
    if not isinstance(payload["seq"], int) or payload["seq"] < 1:
        raise ValueError(f"event seq must be a positive integer, got {payload['seq']!r}")
    if not isinstance(payload["ts"], (int, float)) or isinstance(payload["ts"], bool):
        raise ValueError(f"event ts must be a number, got {payload['ts']!r}")
    if not isinstance(payload["kind"], str) or not payload["kind"]:
        raise ValueError(f"event kind must be a non-empty string, got {payload['kind']!r}")
    if payload["level"] not in LEVELS:
        raise ValueError(f"event level must be one of {LEVELS}, got {payload['level']!r}")
    for field in ("trace_id", "span_id"):
        if payload[field] is not None and not isinstance(payload[field], str):
            raise ValueError(f"event {field} must be a string or null, got {payload[field]!r}")
    if not isinstance(payload["attributes"], Mapping):
        raise ValueError(f"event attributes must be a mapping, got {payload['attributes']!r}")
    try:
        json.dumps(payload["attributes"], sort_keys=True)
    except (TypeError, ValueError) as error:
        raise ValueError(f"event attributes are not JSON-serializable: {error}") from None
