"""Per-request deadline propagation.

A **deadline** is an absolute point on this process's monotonic clock by
which a request must finish.  It travels between processes as a *relative*
budget — a ``"deadline_ms"`` field on the request envelope — because
monotonic clocks are not comparable across processes: the client stamps
its *remaining* milliseconds at send time, the server re-anchors them on
its own clock.  Each hop therefore decrements the budget by exactly the
time already burned, with no clock synchronization anywhere.

Design rules (same priority order as :mod:`repro.observability.tracing`):

1. **Zero cost when off.**  The deadline is a field of the request
   context (:mod:`repro.observability.context`); :func:`check_deadline` is
   one read of it when no deadline is active, so the engine, the executor
   and the exponential loops call it unconditionally.
2. **Wire-envelope propagation.**  ``deadline_ms`` rides next to the
   ``trace`` key on the request envelope; ``parse_wire`` filters unknown
   keys, so a pre-resilience peer ignores it harmlessly — no protocol
   version bump.
3. **Explicit thread handoff.**  Code that fans a request out on a pool
   (the router's scatter, a batch) wraps each task in
   :func:`repro.observability.context.carry`, which restores the whole
   request context — deadline, account and trace — on the pool thread.

Enforcement sits where a doomed query would otherwise burn unbounded CPU
— at **pipeline-breaker materialization points** in the streaming
executor, once per kernel of the exact enumeration and once per candidate
relation of a second-order quantifier — and at the engine's evaluation
entry points; exceeding raises the typed
:class:`~repro.errors.DeadlineExceededError`, wire code
``deadline_exceeded``, HTTP 504.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator

from repro.errors import DeadlineExceededError
from repro.observability.context import current, scope

__all__ = ["Deadline", "adopt", "check_deadline", "current_deadline", "deadline_scope"]

#: Floor stamped on the wire: a positive budget that has not *yet* expired
#: locally is never rounded down to "no deadline" or to an expired one.
_MIN_WIRE_BUDGET_MS = 1

#: Ceiling accepted off the wire (one week) — a corrupt or hostile budget
#: must not pin a Deadline object arbitrarily far in the future.
_MAX_WIRE_BUDGET_MS = 7 * 24 * 3600 * 1000


class Deadline:
    """An absolute monotonic-clock expiry, checked cheaply and often."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at

    @classmethod
    def after_ms(cls, budget_ms: float) -> "Deadline":
        """A deadline *budget_ms* milliseconds from now."""
        return cls(time.monotonic() + budget_ms / 1000.0)

    def remaining_seconds(self) -> float:
        """Seconds left before expiry; negative once past it."""
        return self.expires_at - time.monotonic()

    def remaining_ms(self) -> float:
        return self.remaining_seconds() * 1000.0

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the deadline has passed."""
        overrun = time.monotonic() - self.expires_at
        if overrun >= 0.0:
            # Imported here, not at module top: the expiry path is cold by
            # definition, and the lazy import keeps this hot-path module's
            # only observability dependency the leaf context module.
            from repro.observability import events

            events.emit(
                "deadline.expired",
                level="warning",
                what=what,
                overrun_ms=overrun * 1000.0,
            )
            raise DeadlineExceededError(
                f"deadline exceeded during {what} (over budget by {overrun * 1000.0:.1f}ms)"
            )

    def wire_budget_ms(self) -> int:
        """The remaining budget as stamped on a request envelope.

        Raises if already expired — a hop must not forward a dead request —
        and floors at 1ms so an almost-exhausted budget still travels as a
        deadline rather than silently vanishing.
        """
        self.check("request send")
        return max(_MIN_WIRE_BUDGET_MS, int(self.remaining_ms()))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Deadline(remaining={self.remaining_ms():.1f}ms)"


def current_deadline() -> Deadline | None:
    """The request's deadline, if any (the disabled-path check)."""
    return current().deadline


def check_deadline(what: str = "request") -> None:
    """Enforce the request's deadline; one context read when none is set."""
    deadline = current().deadline
    if deadline is not None:
        deadline.check(what)


@contextlib.contextmanager
def deadline_scope(budget_ms: float | None) -> Iterator[Deadline | None]:
    """Edge entry point: run the block under a fresh *budget_ms* deadline.

    ``deadline_scope(None)`` runs the block with no deadline — convenient
    for call sites with an optional timeout parameter.
    """
    if budget_ms is None:
        yield None
        return
    with scope(deadline=Deadline.after_ms(budget_ms)) as context:
        yield context.deadline


def adopt(value: object) -> Deadline | None:
    """Server-side: a :class:`Deadline` for an envelope's ``deadline_ms``.

    Tolerant by design — ``None``, absent, malformed, non-positive or
    absurdly large budgets all mean "no deadline" rather than a failed
    request; only a positive finite number anchors a deadline on the local
    clock.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if not (0 < value <= _MAX_WIRE_BUDGET_MS):
        return None
    return Deadline.after_ms(float(value))
