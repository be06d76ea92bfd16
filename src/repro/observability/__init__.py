"""Stdlib-only telemetry for the serving stack: traces, metrics, forensics.

Seven views of a running system, all zero-dependency and all designed to
cost (almost) nothing when disabled:

* :mod:`repro.observability.tracing` — span-based request tracing.  A trace
  is started at the edge (client or CLI); its context rides the JSON wire
  envelope so router→worker scatter/gather hops stitch into one tree.
* :mod:`repro.observability.metrics` — thread-safe counters, gauges and
  log-bucketed latency histograms (p50/p95/p99), served at ``GET /metrics``
  and merged cluster-wide by the router.
* :mod:`repro.observability.explain` — operator-level EXPLAIN ANALYZE: a
  profiler the column-batch executor reports per-node row counts, wall
  time, access-path and memo-hit information to, rendered as a text tree.
* :mod:`repro.observability.events` — a schema-versioned, rate-limited
  structured event log: every resilience decision (shed, trip, retry,
  failover, degraded serve, eviction...) leaves one trace-correlated
  record, optionally NDJSON-durable via ``REPRO_EVENT_LOG``.
* :mod:`repro.observability.accounting` — per-query resource accounts
  (rows scanned/emitted, operator time, cache hits, queue wait, bytes on
  the wire) returned in the response's ``cost`` field.
* :mod:`repro.observability.recorder` + :mod:`repro.observability.export`
  — a bounded flight recorder capturing the full trace+profile+account+
  event tail of slow or failed requests (``GET /debug/flightrecorder``),
  exportable to Chrome trace-event JSON (``repro trace export``).
* :mod:`repro.observability.dashboard` — the pure rendering behind
  ``repro top``: one fleet-wide table of QPS, latency percentiles,
  in-flight, shed/degraded rates and breaker states from ``/metrics``
  snapshots.

A request's deadline, account, trace and current span ride one request
context (:mod:`repro.observability.context`): one context variable, set
for a block by ``scope`` and carried across a pool by ``carry``.  The
serving layers import these modules unconditionally, but every hook is
behind an ``is it on?`` check (a trace or account in the request context,
a non-``None`` profiler).  Those checks guard the hook calls only: the
executor runs the same operators and access paths whether or not anything
observes it.
"""

from repro.observability.accounting import ResourceAccount, current_account
from repro.observability.dashboard import render_top
from repro.observability.events import EventLog, emit, validate_event
from repro.observability.export import chrome_trace_events
from repro.observability.metrics import MetricsRegistry, merge_metric_snapshots
from repro.observability.recorder import FlightRecorder
from repro.observability.tracing import Trace, current_trace, span, trace

__all__ = [
    "EventLog",
    "FlightRecorder",
    "MetricsRegistry",
    "ResourceAccount",
    "Trace",
    "chrome_trace_events",
    "current_account",
    "current_trace",
    "emit",
    "merge_metric_snapshots",
    "render_top",
    "span",
    "trace",
    "validate_event",
]
