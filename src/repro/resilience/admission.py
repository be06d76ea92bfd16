"""Bounded-admission control for the HTTP servers.

The stdlib ``ThreadingHTTPServer`` spawns a thread per connection; under a
traffic spike that means unbounded threads all contending for the engine,
latency collapsing for *everyone*, and no signal to clients that they
should back off.  :class:`AdmissionController` puts a watermark in front
of dispatch:

- up to ``max_in_flight`` requests execute concurrently;
- up to ``max_queue_depth`` more wait (briefly, bounded by
  ``queue_timeout_seconds`` *and* the request's own deadline — a request
  that would expire in the queue is shed immediately);
- everything beyond that is **shed** with the typed
  :class:`~repro.errors.OverloadedError` → HTTP 503 plus a ``Retry-After``
  pacing hint, long before thread exhaustion.

Shedding early is the graceful-degradation contract: a bounded subset of
requests fails *fast and retryably* instead of every request timing out.
The controller also provides :meth:`drain` — "wait until in-flight work
finishes" — which worker shutdown uses so a rolling restart under load
does not surface spurious transport errors to the router.

Counters go through the PR 6 metrics registry when one is attached:
``admission.admitted``, ``admission.queued``, ``admission.sheds`` and the
``admission.in_flight`` gauge, all visible in ``GET /metrics``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Iterator

from repro.errors import OverloadedError
from repro.observability import events
from repro.observability.context import current

__all__ = ["AdmissionController", "DEFAULT_MAX_IN_FLIGHT", "DEFAULT_MAX_QUEUE_DEPTH"]

#: Generous defaults: far above the serving benchmarks' concurrency, far
#: below thread-exhaustion territory for a stdlib threading server.
DEFAULT_MAX_IN_FLIGHT = 64
DEFAULT_MAX_QUEUE_DEPTH = 128
DEFAULT_QUEUE_TIMEOUT_SECONDS = 0.5
DEFAULT_RETRY_AFTER_SECONDS = 0.05


class AdmissionController:
    """A watermarked in-flight bound with queue-and-shed semantics."""

    def __init__(
        self,
        *,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        queue_timeout_seconds: float = DEFAULT_QUEUE_TIMEOUT_SECONDS,
        retry_after_seconds: float = DEFAULT_RETRY_AFTER_SECONDS,
        metrics=None,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        self.max_in_flight = max_in_flight
        self.max_queue_depth = max_queue_depth
        self.queue_timeout_seconds = queue_timeout_seconds
        self.retry_after_seconds = retry_after_seconds
        self.metrics = metrics
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._in_flight = 0
        self._queued = 0
        self._sheds = 0

    # Admission ------------------------------------------------------------------

    @contextlib.contextmanager
    def admit(self) -> Iterator[None]:
        """Hold one in-flight slot for the block (queue, or shed with 503)."""
        self.acquire()
        try:
            yield
        finally:
            self.release()

    def acquire(self) -> None:
        context = current()
        deadline = context.deadline
        account = context.account
        entered = time.monotonic() if account is not None else 0.0
        with self._lock:
            if self._in_flight < self.max_in_flight:
                self._in_flight += 1
                self._note_admitted()
                return
            if self._queued >= self.max_queue_depth:
                self._shed("queue full")
            # Wait bounded by the queue timeout and, when the request
            # carries a deadline, by its remaining budget — a request that
            # would die waiting is shed now, while a retry elsewhere can
            # still make its deadline.
            budget = self.queue_timeout_seconds
            if deadline is not None:
                budget = min(budget, deadline.remaining_seconds())
            if budget <= 0.0:
                self._shed("no budget to queue")
            self._queued += 1
            if self.metrics is not None:
                self.metrics.increment("admission.queued")
            expires = time.monotonic() + budget
            try:
                while self._in_flight >= self.max_in_flight:
                    remaining = expires - time.monotonic()
                    if remaining <= 0.0:
                        self._shed("queued past the watermark timeout")
                    self._slot_freed.wait(remaining)
            finally:
                self._queued -= 1
            self._in_flight += 1
            self._note_admitted()
            if account is not None:
                account.add_queue_wait(time.monotonic() - entered)

    def release(self) -> None:
        with self._lock:
            self._in_flight -= 1
            if self.metrics is not None:
                self.metrics.set_gauge("admission.in_flight", float(self._in_flight))
            self._slot_freed.notify_all()

    def _note_admitted(self) -> None:
        """Caller holds the lock."""
        if self.metrics is not None:
            self.metrics.increment("admission.admitted")
            self.metrics.set_gauge("admission.in_flight", float(self._in_flight))

    def _shed(self, why: str) -> None:
        """Caller holds the lock; raises the typed 503."""
        self._sheds += 1
        if self.metrics is not None:
            self.metrics.increment("admission.sheds")
        events.emit(
            "admission.shed",
            level="warning",
            why=why,
            in_flight=self._in_flight,
            queued=self._queued,
        )
        raise OverloadedError(
            f"overloaded: {why} ({self._in_flight} in flight, {self._queued} queued); retry later",
            retry_after_seconds=self.retry_after_seconds,
        )

    # Introspection / shutdown ---------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def sheds(self) -> int:
        with self._lock:
            return self._sheds

    def drain(self, timeout_seconds: float = 5.0) -> bool:
        """Wait until no request is in flight; ``False`` on timeout.

        The graceful-shutdown hook: the server stops accepting, then drains
        before closing the listening socket, so requests already admitted
        finish cleanly instead of surfacing as transport errors upstream.
        """
        expires = time.monotonic() + timeout_seconds
        with self._lock:
            while self._in_flight > 0:
                remaining = expires - time.monotonic()
                if remaining <= 0.0:
                    return False
                self._slot_freed.wait(remaining)
            return True
