"""Server-side cursors for chunked (streamed) answer delivery.

A single-body response ships the whole answer set as one JSON body; a large
answer over a large instance turns into a single multi-megabyte
serialization on one thread.  The streaming path materializes the answer
once into a *cursor* — the canonical sorted row order, packed into one flat
tuple of cells (:class:`~repro.service.protocol.PackedRows`) — and hands the
client a cursor id.  Each page is sliced from the packed rows when it is
fetched, and pages are fetched individually and idempotently
(:class:`~repro.service.protocol.FetchRequest` names an explicit page index,
so a retried fetch re-reads rather than double-advances, which keeps the
client's stale-connection retry safe).

Cursors live in the transport layer (the HTTP server owns one store), not
in the engine — in-process callers already hold the full answer set as a
frozenset and have nothing to stream.  The store is a bounded LRU: an
abandoned cursor costs memory until eviction, an evicted cursor raises
:class:`~repro.errors.UnknownCursorError` and the client re-executes.
"""

from __future__ import annotations

import secrets
import threading
from collections import OrderedDict

from repro.errors import ServiceError, UnknownCursorError
from repro.observability import events
from repro.service.protocol import CursorResponse, PackedRows, PageResponse, QueryResponse

__all__ = ["CursorStore", "DEFAULT_CURSOR_CAPACITY"]

DEFAULT_CURSOR_CAPACITY = 256


class CursorStore:
    """A bounded, thread-safe registry of open streaming cursors."""

    def __init__(self, capacity: int = DEFAULT_CURSOR_CAPACITY) -> None:
        if capacity < 1:
            raise ServiceError("a cursor store needs capacity for at least one cursor")
        self._capacity = capacity
        self._lock = threading.Lock()
        #: cursor id -> (the answer's rows, page size)
        self._cursors: OrderedDict[str, tuple[PackedRows, int]] = OrderedDict()

    def open(self, response: QueryResponse, label: str, page_size: int) -> CursorResponse:
        """Materialize one answer route of *response* into a cursor.

        The rows are already in canonical wire order (``canonical_rows``
        sorted them), so concatenating the pages in index order reproduces
        the single-body ``answers[label]`` byte for byte.
        """
        if page_size < 1:
            raise ServiceError(f"page_size must be a positive integer, got {page_size!r}")
        try:
            rows = PackedRows.pack(response.answers[label])
        except KeyError:
            raise ServiceError(
                f"response has no {label!r} answers to stream (method was {response.method!r})"
            ) from None
        pages = _page_count(rows, page_size)
        cursor_id = secrets.token_hex(16)
        with self._lock:
            self._cursors[cursor_id] = (rows, page_size)
            while len(self._cursors) > self._capacity:
                evicted_id, (evicted_rows, evicted_page_size) = self._cursors.popitem(last=False)
                events.emit(
                    "cursor.evicted",
                    level="warning",
                    cursor_id=evicted_id,
                    pages=_page_count(evicted_rows, evicted_page_size),
                    total_rows=evicted_rows.count,
                    capacity=self._capacity,
                )
        return CursorResponse(
            cursor_id=cursor_id,
            database=response.database,
            fingerprint=response.fingerprint,
            query=response.query,
            method=response.method,
            arity=response.arity,
            label=label,
            total_rows=rows.count,
            page_size=page_size,
            pages=pages,
            complete=response.complete,
            missed=response.missed,
            cached=response.cached,
            elapsed_seconds=response.elapsed_seconds,
        )

    def fetch(self, cursor_id: str, page: int) -> PageResponse:
        """One page by index; refreshes the cursor's LRU position."""
        with self._lock:
            entry = self._cursors.get(cursor_id)
            if entry is not None:
                self._cursors.move_to_end(cursor_id)
        if entry is None:
            raise UnknownCursorError(
                f"unknown cursor {cursor_id!r} — it may have been evicted; re-execute to stream again"
            )
        rows, page_size = entry
        pages = _page_count(rows, page_size)
        if not 0 <= page < pages:
            raise ServiceError(f"cursor {cursor_id!r} has pages 0..{pages - 1}, got {page}")
        return PageResponse(
            cursor_id=cursor_id,
            page=page,
            rows=rows.rows(page * page_size, (page + 1) * page_size),
            last=page == pages - 1,
        )

    def close(self, cursor_id: str) -> None:
        """Drop a cursor early (idempotent: unknown ids are already gone)."""
        with self._lock:
            self._cursors.pop(cursor_id, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._cursors)


def _page_count(rows: PackedRows, page_size: int) -> int:
    """Pages of *rows* at *page_size*; an empty answer still has one (empty) page."""
    return max(1, -(-rows.count // page_size))
