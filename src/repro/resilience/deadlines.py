"""Per-request deadline propagation, mirrored on the tracing design.

A **deadline** is an absolute point on this process's monotonic clock by
which a request must finish.  It travels between processes as a *relative*
budget — a ``"deadline_ms"`` field on the request envelope — because
monotonic clocks are not comparable across processes: the client stamps
its *remaining* milliseconds at send time, the server re-anchors them on
its own clock.  Each hop therefore decrements the budget by exactly the
time already burned, with no clock synchronization anywhere.

Design rules (same priority order as :mod:`repro.observability.tracing`):

1. **Zero cost when off.**  :func:`check_deadline` is a single
   thread-local read when no deadline is active; the engine and executor
   call it unconditionally on hot paths.
2. **Wire-envelope propagation.**  ``deadline_ms`` rides next to the
   ``trace`` key on the request envelope; ``parse_wire`` filters unknown
   keys, so a pre-resilience peer ignores it harmlessly — no protocol
   version bump.
3. **Explicit thread handoff.**  Code that fans a request out on a pool
   (the router's scatter, a batch) wraps each task in
   :func:`carry_request_context`, which captures the deadline — with the
   request's resource account and trace — before the handoff and
   re-activates them on the pool thread.

Enforcement sits at **pipeline-breaker materialization points** in the
streaming executor (where a doomed query would otherwise burn unbounded
CPU) and at the engine's evaluation entry points; exceeding raises the
typed :class:`~repro.errors.DeadlineExceededError`, wire code
``deadline_exceeded``, HTTP 504.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterator, TypeVar

from repro.errors import DeadlineExceededError
from repro.observability import tracing
from repro.observability.accounting import activate as activate_account, current_account

__all__ = [
    "Deadline",
    "activate",
    "adopt",
    "carry_request_context",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
]

_ACTIVE = threading.local()

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
            # definition, and the lazy import keeps this hot-path module
            # free of any observability dependency.
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
    """The deadline active on this thread, if any (the disabled-path check)."""
    return getattr(_ACTIVE, "deadline", None)


def check_deadline(what: str = "request") -> None:
    """Enforce the active deadline; a single thread-local read when none is set."""
    active = getattr(_ACTIVE, "deadline", None)
    if active is not None:
        active.check(what)


@contextlib.contextmanager
def activate(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Make *deadline* the current thread's deadline for the block.

    ``activate(None)`` is an inert pass-through, so pool-thread handoff
    code can call it unconditionally.  The previous deadline is restored
    on exit, so nesting — a server thread with a request deadline driving
    an in-process router — unwinds correctly.  (A forwarded budget is
    always ≤ the enclosing one, so "replace" and "tighten" coincide.)
    """
    if deadline is None:
        yield None
        return
    previous = getattr(_ACTIVE, "deadline", None)
    _ACTIVE.deadline = deadline
    try:
        yield deadline
    finally:
        _ACTIVE.deadline = previous


_Result = TypeVar("_Result")


def carry_request_context(task: Callable[..., _Result]) -> Callable[..., _Result]:
    """*task*, to run on a pool thread under the calling thread's request context.

    Thread-locals do not cross a pool: capture the caller's deadline, its
    resource account and its trace *with the current span* here, and
    re-activate them around every call of the returned function — so each
    pooled task inherits the request's remaining budget, its charges land
    on the request's bill (int adds under the GIL are safe across
    concurrent tasks), and its spans nest under the caller's.  With all
    three off this is four thread-local reads plus no-op context managers.
    """
    deadline = current_deadline()
    account = current_account()
    active = tracing.current_trace()
    parent = tracing.current_span_id()

    def carried(*args, **kwargs) -> _Result:
        with activate(deadline), activate_account(account), tracing.activate(active, parent=parent):
            return task(*args, **kwargs)

    return carried


@contextlib.contextmanager
def deadline_scope(budget_ms: float | None) -> Iterator[Deadline | None]:
    """Edge entry point: run the block under a fresh *budget_ms* deadline.

    ``deadline_scope(None)`` runs the block with no deadline — convenient
    for call sites with an optional timeout parameter.
    """
    if budget_ms is None:
        yield None
        return
    with activate(Deadline.after_ms(budget_ms)) as active:
        yield active


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
