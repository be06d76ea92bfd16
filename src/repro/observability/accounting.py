"""Per-query resource accounting, mirrored on the tracing/deadline design.

A :class:`ResourceAccount` is one request's itemized bill: rows scanned at
base relations, rows emitted in the answer, wall time inside the
executor, cache hits, time spent queued at admission, retry rounds, and
bytes in/out on the wire.  The server opens an account per request,
activates it on the handling thread, and every layer underneath charges
it without any parameter threading — the executor, the engine and the
admission controller each perform **one thread-local read** and charge
the account if one is active.

Design rules (the same priority order as tracing and deadlines):

1. **Zero cost when off.**  :func:`current_account` is a single
   thread-local read; with no account active, every charge site is an
   ``is None`` check.  The column-batch executor captures the account
   once per execution and charges at base-relation access points
   (len-based, never per row); it bills the path it takes and never
   chooses a path by whether an account is active.
2. **Wire-envelope propagation.**  The bill returns to the client as a
   ``cost`` field on the query response; ``parse_wire`` filters unknown
   keys, so a pre-accounting peer ignores it harmlessly — no protocol
   version bump.
3. **Explicit thread handoff.**  Pool fan-out captures
   :func:`current_account` and re-activates it in the worker thread with
   :func:`activate` (inert for ``None``); charges are lock-free but
   int/float adds under the GIL, so concurrent shard tasks may charge one
   account safely.

The payload carries ``"schema": "repro-cost/v1"`` so clients and the
flight recorder can shape-check what they store.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Iterator, Mapping

__all__ = [
    "COST_SCHEMA",
    "ResourceAccount",
    "activate",
    "cost_summary",
    "current_account",
]

COST_SCHEMA = "repro-cost/v1"

_ACTIVE = threading.local()


class ResourceAccount:
    """One request's itemized resource bill (charged lock-free under the GIL)."""

    __slots__ = (
        "rows_scanned",
        "rows_emitted",
        "operator_seconds",
        "cache_hits",
        "queue_wait_seconds",
        "retries",
        "bytes_in",
        "bytes_out",
        "started",
    )

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.rows_emitted = 0
        self.operator_seconds = 0.0
        self.cache_hits = 0
        self.queue_wait_seconds = 0.0
        self.retries = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.started = time.perf_counter()

    # Charges --------------------------------------------------------------------

    def add_scanned(self, rows: int) -> None:
        self.rows_scanned += rows

    def add_emitted(self, rows: int) -> None:
        self.rows_emitted += rows

    def add_operator_seconds(self, seconds: float) -> None:
        self.operator_seconds += seconds

    def note_cache_hit(self, count: int = 1) -> None:
        self.cache_hits += count

    def add_queue_wait(self, seconds: float) -> None:
        self.queue_wait_seconds += seconds

    def note_retry(self, count: int = 1) -> None:
        self.retries += count

    def add_bytes_in(self, count: int) -> None:
        self.bytes_in += count

    def add_bytes_out(self, count: int) -> None:
        self.bytes_out += count

    # Output ---------------------------------------------------------------------

    def to_payload(self) -> dict:
        """The wire/recorder form (the response's ``cost`` field)."""
        return {
            "schema": COST_SCHEMA,
            "rows_scanned": self.rows_scanned,
            "rows_emitted": self.rows_emitted,
            "operator_seconds": self.operator_seconds,
            "cache_hits": self.cache_hits,
            "queue_wait_seconds": self.queue_wait_seconds,
            "retries": self.retries,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "elapsed_seconds": time.perf_counter() - self.started,
        }

    def charge_metrics(self, registry) -> None:
        """Fold this bill into aggregate counters (per-request totals sum)."""
        registry.increment("account.rows_scanned", self.rows_scanned)
        registry.increment("account.rows_emitted", self.rows_emitted)
        registry.increment("account.cache_hits", self.cache_hits)
        registry.increment("account.retries", self.retries)
        registry.increment("account.bytes_in", self.bytes_in)
        registry.increment("account.bytes_out", self.bytes_out)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ResourceAccount(scanned={self.rows_scanned}, emitted={self.rows_emitted}, "
            f"operator={self.operator_seconds * 1000.0:.1f}ms, cache_hits={self.cache_hits})"
        )


def current_account() -> ResourceAccount | None:
    """The account active on this thread, if any (the disabled-path check)."""
    return getattr(_ACTIVE, "account", None)


@contextlib.contextmanager
def activate(account: ResourceAccount | None) -> Iterator[ResourceAccount | None]:
    """Make *account* the current thread's account for the block.

    ``activate(None)`` is an inert pass-through so pool-handoff code can
    call it unconditionally; the previous account is restored on exit so
    an in-process router driving a service nests correctly.
    """
    if account is None:
        yield None
        return
    previous = getattr(_ACTIVE, "account", None)
    _ACTIVE.account = account
    try:
        yield account
    finally:
        _ACTIVE.account = previous


def cost_summary(payload: object) -> str:
    """One human line for a wire ``cost`` payload (CLI rendering)."""
    if not isinstance(payload, Mapping):
        return ""
    parts = []
    for key, label in (
        ("rows_scanned", "scanned"),
        ("rows_emitted", "emitted"),
        ("cache_hits", "cache hits"),
        ("retries", "retries"),
    ):
        value = payload.get(key)
        if isinstance(value, int) and not isinstance(value, bool):
            parts.append(f"{label}={value}")
    operator = payload.get("operator_seconds")
    if isinstance(operator, (int, float)) and not isinstance(operator, bool):
        parts.append(f"operator={operator * 1000.0:.2f}ms")
    queued = payload.get("queue_wait_seconds")
    if isinstance(queued, (int, float)) and not isinstance(queued, bool) and queued > 0:
        parts.append(f"queued={queued * 1000.0:.2f}ms")
    return " ".join(parts)
