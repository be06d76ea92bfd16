"""A thread-safe LRU cache with hit/miss/eviction counters.

The serving layer caches three kinds of derived objects:

* parsed queries, keyed on the query text;
* compiled + optimized plans, keyed on ``(db_fingerprint, query_shape)``;
* answer sets, keyed on ``(db_fingerprint, query_text, method, profile)``.

All three see concurrent access from the batch executor and the HTTP
front-end, so every operation takes a single lock; the cached values
themselves (frozensets, Query objects, responses and their packed rows) are
immutable and may be shared freely between threads once handed out.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator

__all__ = ["CacheStats", "LRUCache"]

DEFAULT_CAPACITY = 1024


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of a cache's counters."""

    capacity: int
    size: int
    hits: int
    misses: int
    evictions: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "capacity": self.capacity,
            "size": self.size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }


class LRUCache:
    """Least-recently-used mapping with counters, safe for concurrent use.

    ``capacity <= 0`` disables caching entirely: every lookup is a miss and
    nothing is stored, which gives benchmarks a "cold path" configuration
    without a second code path.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(tuple(self._entries))

    def get(self, key: Hashable, default: object = None) -> object:
        """Return the cached value (refreshing recency) or *default*."""
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self._misses += 1
            return default

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh an entry, evicting the LRU entry on overflow."""
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]) -> tuple[object, bool]:
        """Return ``(value, was_cached)``, computing and storing on a miss.

        ``compute`` runs *outside* the lock: query evaluation can take far
        longer than a cache probe and must not serialize other lookups.  Two
        threads racing on the same key may both compute; the value is
        deterministic, so last-writer-wins is harmless.
        """
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value, True
        value = compute()
        self.put(key, value)
        return value, False

    def invalidate(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies *predicate*; returns the count."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                capacity=self.capacity,
                size=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )
