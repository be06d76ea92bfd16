"""Operator-level EXPLAIN ANALYZE for the column-batch executor.

A :class:`PlanProfiler` is handed to :func:`repro.physical.algebra.execute`.
The executor reports once per column batch (``observe_start``/
``observe_batch``/``observe_tail``), so the profile is exact at one clock
pair per batch.  It meters the path that serves unprofiled requests too:
attaching a profiler changes no operator and no access path.  Per node it
observes:

* **rows** — how many rows the node produced (rows-out; each child's entry
  is that node's rows-in);
* **wall time** — cumulative seconds spent inside the node's iterator,
  *inclusive* of its children (the streaming executor pulls through the
  whole pipeline, so exclusive time is not well defined per ``next()``);
* **access path** — whether a scan/join/semi-join used a stored hash index
  or fell back to scan-and-filter;
* **memo hits** — how often a shared subplan was replayed from the
  materialization memo instead of recomputed;
* **batches** — how many column batches the node emitted.

A join fused into the projection above it is still metered as its own node
(the fused stream carries the projection's row count, which is the join's).

Profiles are plain JSON-compatible dicts (the ``profile`` field of a
:class:`~repro.service.protocol.QueryResponse`) rendered by
:func:`render_profile` as the ``repro query --analyze`` / ``client
explain`` tree.  Profiling is opt-in per request; the disabled path in the
executor is one ``is None`` check per node.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["PlanProfiler", "profile_payload", "render_profile"]


class _NodeStats:
    __slots__ = ("rows", "seconds", "access", "memo_hits", "iterated", "batches")

    def __init__(self) -> None:
        self.rows = 0
        self.seconds = 0.0
        self.access: str | None = None
        self.memo_hits = 0
        self.iterated = False
        self.batches = 0


class PlanProfiler:
    """Collects per-plan-node execution statistics during one execution.

    Keyed by plan node; plan nodes are frozen dataclasses, so structurally
    equal subtrees share one entry — deliberately so, since the executor
    also memoizes them as one shared subplan.  Not thread-safe: one
    profiler profiles one (single-threaded) execution.
    """

    def __init__(self) -> None:
        self._stats: dict[object, _NodeStats] = {}
        self.root = None

    # Executor-facing hooks ------------------------------------------------------

    def set_root(self, plan) -> None:
        self.root = plan

    def _entry(self, plan) -> _NodeStats:
        stats = self._stats.get(plan)
        if stats is None:
            stats = self._stats[plan] = _NodeStats()
        return stats

    # Batch-granular hooks: one call per column batch; row counts stay exact
    # because every batch reports its live-row count.

    def observe_start(self, plan) -> None:
        """A node's batch stream was pulled (even a node producing no batches
        reports ``rows=0`` rather than ``None``)."""
        self._entry(plan).iterated = True

    def observe_batch(self, plan, rows: int, seconds: float) -> None:
        """One batch of *rows* live rows left the node after *seconds* inside it."""
        stats = self._entry(plan)
        stats.rows += rows
        stats.batches += 1
        stats.seconds += seconds

    def observe_tail(self, plan, seconds: float) -> None:
        """The node's exhausted final pull took *seconds* (still its time)."""
        self._entry(plan).seconds += seconds

    def memo_hit(self, plan) -> None:
        """A shared subplan was served from the materialization memo."""
        self._entry(plan).memo_hits += 1

    def note_access(self, plan, path: str) -> None:
        """Record the access-path decision (``"index"`` or ``"scan"``)."""
        self._entry(plan).access = path

    # Rendering ------------------------------------------------------------------

    def tree(self, labeler) -> dict | None:
        """The profile as a nested JSON-compatible dict mirroring the plan tree.

        *labeler* maps a plan node to its one-line operator label (the
        executor's :func:`~repro.physical.algebra.node_label`) — injected so
        this module never imports the physical layer.
        """
        if self.root is None:
            return None
        return self._node_payload(self.root, labeler)

    def _node_payload(self, plan, labeler) -> dict:
        stats = self._stats.get(plan)
        payload: dict = {"operator": labeler(plan)}
        if stats is not None:
            payload["rows"] = stats.rows if stats.iterated else None
            payload["time_us"] = int(stats.seconds * 1_000_000)
            # A node that emitted no batch has no ``batches`` field.
            if stats.batches:
                payload["batches"] = stats.batches
            if stats.access is not None:
                payload["access"] = stats.access
            if stats.memo_hits:
                payload["memo_hits"] = stats.memo_hits
        else:
            # Never iterated: pruned by an index path (e.g. a join build
            # side replaced by the stored prefix index) or an empty input.
            payload["rows"] = None
            payload["time_us"] = 0
        payload["children"] = [self._node_payload(child, labeler) for child in plan.children()]
        return payload


def profile_payload(method: str, profiler: PlanProfiler | None, labeler) -> dict[str, object]:
    """The EXPLAIN ANALYZE payload for one freshly evaluated request.

    An operator tree exists exactly when the approximate route ran the
    algebra executor; the Tarskian enumerator and the exact evaluator have
    no plan intermediates to meter, so those routes report a note instead
    of silently returning nothing.  *labeler* is the executor's
    :func:`~repro.physical.algebra.node_label` (injected, see
    :meth:`PlanProfiler.tree`).
    """
    operators = profiler.tree(labeler) if profiler is not None else None
    if operators is not None:
        return {"engine": "algebra", "operators": operators}
    if method == "exact":
        return {
            "engine": "exact",
            "note": "exact certain-answer evaluation has no algebra plan to profile",
        }
    return {
        "engine": "tarski",
        "note": "Tarskian enumeration: no operator tree (the direct evaluator has no plan)",
    }


def _flatten(node: Mapping[str, object], depth: int, rows: list) -> None:
    label = str(node.get("operator", "?"))
    count = node.get("rows")
    time_us = node.get("time_us")
    cache_bits = []
    access = node.get("access")
    if isinstance(access, str):
        cache_bits.append(access)
    memo_hits = node.get("memo_hits")
    if isinstance(memo_hits, int) and memo_hits:
        cache_bits.append(f"memo x{memo_hits}")
    # Absent from nodes that emitted no batch.
    batches = node.get("batches")
    if isinstance(batches, int) and batches:
        cache_bits.append(f"{batches} batch" + ("es" if batches != 1 else ""))
    rows.append(
        (
            "  " * depth + label,
            "-" if count is None else str(count),
            "-" if not isinstance(time_us, (int, float)) else f"{time_us / 1000:.3f}",
            ", ".join(cache_bits) or "-",
        )
    )
    children = node.get("children")
    if isinstance(children, (list, tuple)):
        for child in children:
            if isinstance(child, Mapping):
                _flatten(child, depth + 1, rows)


def render_profile(profile: Mapping[str, object] | None) -> str:
    """Text rendering of a response's ``profile`` payload.

    The operator tree (when the request ran through the algebra executor)
    becomes an aligned table with rows / time / cache columns; engine-level
    notes (Tarskian route, cached response) render as plain lines.
    """
    if not isinstance(profile, Mapping):
        return "(no profile recorded)"
    lines = []
    engine = profile.get("engine")
    if isinstance(engine, str):
        lines.append(f"engine: {engine}")
    note = profile.get("note")
    if isinstance(note, str):
        lines.append(note)
    operators = profile.get("operators")
    if isinstance(operators, Mapping):
        from repro.harness.reporting import format_table

        table_rows: list = []
        _flatten(operators, 0, table_rows)
        lines.append(format_table(["operator", "rows", "time_ms", "cache"], table_rows))
    elif not lines:
        lines.append("(no operator tree: the request did not run through the algebra executor)")
    shards = profile.get("shards")
    if isinstance(shards, (list, tuple)):
        for index, shard_profile in enumerate(shards):
            lines.append(f"-- shard part {index} --")
            lines.append(render_profile(shard_profile if isinstance(shard_profile, Mapping) else None))
    return "\n".join(lines)
