"""Batch-size sweep: measure operator microbenchmarks per scan batch size.

The vectorized executor's one tunable is the scan batch size.  Too small
and the per-batch Python overhead (one loop iteration, one ``ColumnBatch``
allocation, one profiler call per operator per batch) eats the columnar
win; too large costs nothing on these in-memory workloads — there is no
cache-capacity cliff to fall off at Python-object granularity, so the
curve flattens instead of turning over.  This module measures that curve
so the default in :mod:`repro.physical.batch` is a recorded decision
rather than folklore, and so the E20 benchmark can embed the sweep it ran
under in its report's environment stanza.

The sweep times the three operator shapes the executor spends its life
in, each over one synthetic two-relation database:

* **scan** — full materialization of a stored relation (the pipeline
  breaker: slice columns, re-assemble row tuples, hash into the result
  set);
* **filter** — a constant-binding selection over a scan (one vectorized
  mask pass per batch);
* **join** — a two-relation natural join (per-batch hash build + probe).

Each candidate batch size gets ``best_of(repeats)`` seconds per shape
(noise-stripped minimums, same policy as every comparison benchmark in
this repo); :func:`recommend_batch_size` then picks the smallest
candidate within *tolerance* of the fastest total, preferring smaller
batches when the difference is noise because they bound peak batch memory.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.harness.experiments import best_of
from repro.logic.vocabulary import Vocabulary
from repro.physical.batch import DEFAULT_BATCH_SIZE, execute_batched
from repro.physical.database import PhysicalDatabase
from repro.physical.plan import NaturalJoin, PlanNode, RenameColumns, ScanRelation, Selection

__all__ = [
    "CANDIDATE_BATCH_SIZES",
    "sweep_database",
    "sweep_plans",
    "sweep_batch_sizes",
    "recommend_batch_size",
    "sweep_summary",
]

#: The batch sizes the sweep measures.  Powers of four around the plausible
#: range: 64 is small enough to expose per-batch overhead, 16384 is larger
#: than any relation the benchmarks scan (i.e. "one batch per relation").
CANDIDATE_BATCH_SIZES: tuple[int, ...] = (64, 256, 1024, 4096, 16384)


def sweep_database(rows: int = 4096, fanout: int = 16) -> PhysicalDatabase:
    """A deterministic two-relation instance for the operator sweep.

    ``R(a, b)`` has *rows* rows whose ``b`` values repeat with the given
    *fanout* (so the join below multiplies rows like a real foreign-key
    join); ``S(b, c)`` has one row per distinct ``b``.
    """
    groups = max(1, rows // fanout)
    r_rows = [(f"a{i}", f"b{i % groups}") for i in range(rows)]
    s_rows = [(f"b{g}", f"c{g % 7}") for g in range(groups)]
    vocabulary = Vocabulary((), {"R": 2, "S": 2})
    domain = {value for row in r_rows + s_rows for value in row}
    return PhysicalDatabase(vocabulary, domain, {}, {"R": r_rows, "S": s_rows})


def sweep_plans() -> tuple[tuple[str, PlanNode], ...]:
    """The ``(shape name, plan)`` pairs the sweep times, over :func:`sweep_database`."""
    scan = ScanRelation("R", ("a", "b"))
    filter_plan = Selection(scan, bindings=(("b", "b3"),))
    join = NaturalJoin(
        scan, RenameColumns(ScanRelation("S", ("x", "c")), (("x", "b"),))
    )
    return (("scan", scan), ("filter", filter_plan), ("join", join))


def sweep_batch_sizes(
    database: PhysicalDatabase | None = None,
    plans: Sequence[tuple[str, PlanNode]] | None = None,
    batch_sizes: Sequence[int] = CANDIDATE_BATCH_SIZES,
    repeats: int = 3,
) -> list[dict[str, object]]:
    """Time every plan shape at every batch size; one result row per size.

    Each row carries the batch size, per-shape best-of seconds, and their
    total.  Results at different sizes are verified to agree exactly —
    the batch size must never be semantically visible.
    """
    if database is None:
        database = sweep_database()
    if plans is None:
        plans = sweep_plans()
    expected = {name: execute_batched(plan, database) for name, plan in plans}
    rows: list[dict[str, object]] = []
    for batch_rows in batch_sizes:
        seconds: dict[str, float] = {}
        for name, plan in plans:
            result, elapsed = best_of(
                lambda p=plan: execute_batched(p, database, batch_rows=batch_rows),
                repeats=repeats,
            )
            if result != expected[name]:
                raise AssertionError(
                    f"batch size {batch_rows} changed the {name} answer — "
                    "the batch size must never be semantically visible"
                )
            seconds[name] = elapsed
        rows.append(
            {
                "batch_rows": batch_rows,
                "seconds": seconds,
                "total_seconds": sum(seconds.values()),
            }
        )
    return rows


def recommend_batch_size(
    rows: Sequence[Mapping[str, object]], tolerance: float = 0.05
) -> int:
    """The smallest batch size within *tolerance* of the fastest total.

    Ties break toward smaller batches: when two sizes measure the same to
    within noise, the smaller one bounds peak per-batch memory for free.
    """
    if not rows:
        raise ValueError("sweep produced no rows")
    fastest = min(float(row["total_seconds"]) for row in rows)
    for row in sorted(rows, key=lambda r: int(r["batch_rows"])):
        if float(row["total_seconds"]) <= fastest * (1.0 + tolerance):
            return int(row["batch_rows"])
    raise AssertionError("unreachable: the fastest row is within any tolerance of itself")


def sweep_summary(repeats: int = 3) -> dict[str, object]:
    """Run the sweep and fold it into one JSON-compatible stanza.

    This is what the E20 benchmark embeds under its report's
    ``environment`` so the artifact records which batch size the numbers
    were taken at and why.
    """
    rows = sweep_batch_sizes(repeats=repeats)
    recommended = recommend_batch_size(rows)
    return {
        "candidates": [
            {
                "batch_rows": row["batch_rows"],
                "total_us": int(float(row["total_seconds"]) * 1_000_000),
            }
            for row in rows
        ],
        "recommended_batch_rows": recommended,
        "default_batch_rows": DEFAULT_BATCH_SIZE,
    }
