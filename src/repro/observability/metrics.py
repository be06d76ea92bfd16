"""Thread-safe counters, gauges and log-bucketed latency histograms.

The registry is the one mutable telemetry object each front-end owns
(:class:`~repro.service.frontend.Frontend`: the single-process service or
the cluster router; its HTTP server records into it too).  Snapshots
are plain JSON-compatible dicts, served at ``GET /metrics`` and merged
cluster-wide with :func:`merge_metric_snapshots` — merging works on the
wire form, so the router can fold in snapshots from workers running *newer*
code (unknown names just pass through).

**Histograms** are log-bucketed: bucket ``i`` holds observations in
``(2**(i-1), 2**i]`` microseconds, so forty integers cover 1µs..half an
hour with a worst-case quantile error of 2x — the right trade for "is p99
ten times p50?" questions, at a fixed memory cost per route.  Percentiles
(p50/p95/p99) are computed at snapshot time from the cumulative bucket
counts and reported as the bucket's upper bound in seconds.

Recording an observation is one lock acquire + one dict upsert; there is no
per-observation allocation, so service layers can record every request.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Mapping

__all__ = [
    "MetricsRegistry",
    "merge_metric_snapshots",
    "percentiles_from_buckets",
]

#: Quantiles every histogram snapshot reports.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _bucket_index(seconds: float) -> int:
    """The log2 bucket of a duration: ``2**(i-1) < microseconds <= 2**i``."""
    microseconds = int(seconds * 1_000_000)
    if microseconds <= 1:
        return 0
    return (microseconds - 1).bit_length()


def _bucket_upper_seconds(index: int) -> float:
    return (1 << index) / 1_000_000


def percentiles_from_buckets(buckets: Mapping[str, int], count: int) -> dict[str, float]:
    """p50/p95/p99 upper-bound estimates from cumulative log-bucket counts."""
    if count <= 0:
        return {name: 0.0 for name, __ in QUANTILES}
    ordered = sorted((int(index), observations) for index, observations in buckets.items())
    results: dict[str, float] = {}
    for name, quantile in QUANTILES:
        needed = quantile * count
        cumulative = 0
        value = 0.0
        for index, observations in ordered:
            cumulative += observations
            if cumulative >= needed:
                value = _bucket_upper_seconds(index)
                break
        results[name] = value
    return results


class _Histogram:
    """Mutable per-name histogram state (guarded by the registry lock)."""

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0
        self.buckets: dict[int, int] = {}

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds
        index = _bucket_index(seconds)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def snapshot(self) -> dict:
        buckets = {str(index): observations for index, observations in sorted(self.buckets.items())}
        payload = {
            "count": self.count,
            "sum_seconds": self.total,
            "min_seconds": 0.0 if self.count == 0 else self.minimum,
            "max_seconds": self.maximum,
            "buckets": buckets,
        }
        payload.update(percentiles_from_buckets(buckets, self.count))
        return payload


class MetricsRegistry:
    """Named counters, gauges and histograms behind one lock.

    One registry per serving component; names are dot-joined dimensions
    (``"query.evaluate"``, ``"http./query"``, ``"template.stmt-1"``).  The
    registry never enforces a name schema — the conventions live with the
    recorders — but it does keep every operation O(1) and allocation-free
    so it can sit on the request hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}
        self._started = time.monotonic()

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency observation into the named histogram."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _Histogram()
            histogram.observe(seconds)

    def time(self, name: str):
        """Context manager observing the block's wall time under *name*."""
        return _Timer(self, name)

    def snapshot(self) -> dict:
        """JSON-compatible view: counters, gauges, histograms-with-quantiles."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {name: histogram.snapshot() for name, histogram in self._histograms.items()},
                "uptime_seconds": time.monotonic() - self._started,
            }


class _Timer:
    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)


#: Fields the merge understands natively; everything else passes through.
_HISTOGRAM_MERGE_FIELDS = ("count", "sum_seconds", "min_seconds", "max_seconds", "buckets")
_QUANTILE_FIELDS = tuple(name for name, __ in QUANTILES)


def _merge_histograms(target: dict, incoming: Mapping[str, object]) -> None:
    # Buckets merge first and unconditionally: they are the ground truth
    # the quantiles are recomputed from, and must survive even when a
    # peer's *other* fields (a reshaped count, say) are unusable.
    buckets = incoming.get("buckets")
    merged = target.setdefault("buckets", {})
    bucket_total = 0
    if isinstance(buckets, Mapping):
        for index, observations in buckets.items():
            if isinstance(observations, int) and not isinstance(observations, bool) and observations >= 0:
                merged[str(index)] = merged.get(str(index), 0) + observations
                bucket_total += observations
    count = incoming.get("count")
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        # A missing or malformed count must not drop the histogram: the
        # merged buckets carry the same information, so recover it.
        count = bucket_total
    target["count"] = target.get("count", 0) + count
    value = incoming.get("sum_seconds")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        target["sum_seconds"] = target.get("sum_seconds", 0.0) + float(value)
    minimum = incoming.get("min_seconds")
    if isinstance(minimum, (int, float)) and not isinstance(minimum, bool) and count:
        current = target.get("min_seconds")
        target["min_seconds"] = float(minimum) if current is None else min(current, float(minimum))
    maximum = incoming.get("max_seconds")
    if isinstance(maximum, (int, float)) and not isinstance(maximum, bool):
        target["max_seconds"] = max(target.get("max_seconds", 0.0), float(maximum))
    # Symmetric field tolerance: fields this code does not know — a newer
    # peer's additions, whichever snapshot carries them — survive the
    # merge (first value wins) instead of silently vanishing.  Quantiles
    # are excluded because they are recomputed from the merged buckets.
    for key, value in incoming.items():
        if key in _HISTOGRAM_MERGE_FIELDS or key in _QUANTILE_FIELDS:
            continue
        target.setdefault(key, value)


def merge_metric_snapshots(snapshots: Iterable[Mapping[str, object]]) -> dict:
    """Merge registry snapshots (local + remote workers) into one view.

    Counters and gauges sum; histograms combine their buckets and recompute
    the quantiles from the merged distribution (summing p99s would be
    meaningless).  Unknown or malformed sections from newer/older peers are
    ignored, field by field — a mixed-version cluster keeps aggregating.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snapshot in snapshots:
        if not isinstance(snapshot, Mapping):
            continue
        section = snapshot.get("counters")
        if isinstance(section, Mapping):
            for name, value in section.items():
                if isinstance(value, int):
                    counters[name] = counters.get(name, 0) + value
        section = snapshot.get("gauges")
        if isinstance(section, Mapping):
            for name, value in section.items():
                if isinstance(value, (int, float)):
                    gauges[name] = gauges.get(name, 0.0) + float(value)
        section = snapshot.get("histograms")
        if isinstance(section, Mapping):
            for name, payload in section.items():
                if isinstance(payload, Mapping):
                    _merge_histograms(histograms.setdefault(name, {}), payload)
    for payload in histograms.values():
        payload.setdefault("min_seconds", 0.0)
        payload.setdefault("max_seconds", 0.0)
        payload.setdefault("sum_seconds", 0.0)
        payload.update(percentiles_from_buckets(payload.get("buckets", {}), payload.get("count", 0)))
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
