"""Resilience primitives for the serving stack (stdlib-only).

The package collects everything the service uses to stay *correct first,
available second* when parts of it misbehave:

- :mod:`repro.resilience.faults` — deterministic, seeded fault injection
  that wraps a client transport or a router backend, so tests and
  benchmarks script outages (refusals, drops, latency, trickle, garbled
  payloads) without killing processes.
- :mod:`repro.resilience.deadlines` — per-request deadline propagation
  through the wire envelope.  The deadline is a field of the request
  context (:mod:`repro.observability.context`), carried across pools with
  the account and trace, and costs one context read when none is set.
- :mod:`repro.resilience.retry` — capped exponential backoff with
  deterministic jitter, and per-backend circuit breakers
  (closed / open / half-open).
- :mod:`repro.resilience.admission` — a bounded in-flight semaphore with
  a queue watermark that sheds load as typed ``OverloadedError`` (503 +
  Retry-After) before server threads exhaust, plus the drain hook worker
  shutdown uses.
"""

from __future__ import annotations

from repro.resilience.admission import AdmissionController
from repro.resilience.deadlines import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.faults import Fault, FaultPlan, FaultingBackend
from repro.resilience.retry import BackoffPolicy, CircuitBreaker

FAULTS_ENV = "REPRO_FAULTS"

__all__ = [
    "AdmissionController",
    "BackoffPolicy",
    "CircuitBreaker",
    "Deadline",
    "FAULTS_ENV",
    "Fault",
    "FaultPlan",
    "FaultingBackend",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
]
