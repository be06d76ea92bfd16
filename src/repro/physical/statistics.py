"""Per-database cardinality statistics for the plan optimizer.

The optimizer's join ordering and index decisions need cheap, reasonably
accurate cardinality estimates.  A :class:`Statistics` object summarizes one
:class:`~repro.physical.database.PhysicalDatabase`: per-relation row counts,
per-column distinct-value counts, and domain sizes.  It is computed lazily,
once per database instance, and cached on the instance — sound because
physical databases are immutable (the same contract ``fingerprint()`` and
``active_domain()`` rely on).

Lazy relations (the ``NE`` of ``Ph2``, read off the ``U``/``NE'`` encoding of
Section 5) are *not* iterated to count distinct values: their ``len()`` is
computed from the encoding but enumeration is quadratic,
so their per-column distinct counts are approximated from the domain size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.physical.database import PhysicalDatabase
from repro.physical.relation import Relation

__all__ = [
    "RelationStatistics",
    "Statistics",
    "statistics_for",
    "statistics_payload",
    "preload_statistics",
]


@dataclass(frozen=True)
class RelationStatistics:
    """Summary of one stored relation: row count and per-column distincts."""

    name: str
    arity: int
    rows: int
    #: distinct values per column position; ``estimated`` marks lazy relations
    #: whose columns were approximated rather than counted.
    distinct: tuple[int, ...]
    estimated: bool = False


class Statistics:
    """Cardinality summary of one immutable physical database.

    ``active_domain_size`` may be supplied by a caller that already knows it
    (a persisted payload); computing it otherwise iterates every stored
    tuple, which is exactly the scan warm boots are trying to avoid.
    """

    def __init__(self, database: PhysicalDatabase, active_domain_size: int | None = None) -> None:
        self._database = database
        self._relations: dict[str, RelationStatistics] = {}
        self.domain_size = len(database.domain)
        if active_domain_size is None:
            active_domain_size = len(database.active_domain())
        self.active_domain_size = active_domain_size

    def relation(self, name: str) -> RelationStatistics:
        """Statistics for one relation (computed on first request)."""
        cached = self._relations.get(name)
        if cached is None:
            cached = self._summarize(name)
            self._relations[name] = cached
        return cached

    def row_count(self, name: str) -> int:
        return self.relation(name).rows

    def distinct(self, name: str, position: int) -> int:
        """Distinct values in one column (>= 1 whenever the relation is nonempty)."""
        summary = self.relation(name)
        if not 0 <= position < summary.arity:
            raise IndexError(f"column {position} out of range for {name!r} (arity {summary.arity})")
        return summary.distinct[position]

    def _summarize(self, name: str) -> RelationStatistics:
        relation = self._database.relation(name)
        arity = relation.arity
        rows = len(relation)
        if isinstance(relation, Relation):
            distinct = tuple(len(relation.column_values(position)) for position in range(arity))
            return RelationStatistics(name, arity, rows, distinct)
        # Lazy relation: approximate each column as densely populated rather
        # than enumerate a possibly quadratic extension.
        approx = min(rows, self.active_domain_size) if rows else 0
        return RelationStatistics(name, arity, rows, (approx,) * arity, estimated=True)

    def as_dict(self) -> Mapping[str, object]:
        """Summary of everything computed so far (for reports and debugging)."""
        return {
            "domain_size": self.domain_size,
            "active_domain_size": self.active_domain_size,
            "relations": {
                name: {"rows": summary.rows, "distinct": list(summary.distinct)}
                for name, summary in sorted(self._relations.items())
            },
        }


def statistics_for(database: PhysicalDatabase) -> Statistics:
    """The (lazily built, instance-cached) statistics of *database*.

    Uses the same ``object.__setattr__`` caching idiom as
    ``PhysicalDatabase.fingerprint`` — valid because instances never mutate.
    """
    cached = database.__dict__.get("_statistics")
    if cached is None:
        cached = Statistics(database)
        object.__setattr__(database, "_statistics", cached)
    return cached


# Persistence ------------------------------------------------------------------
#
# The snapshot store (:mod:`repro.cluster.store`) saves the full statistics of
# a snapshot's ``Ph2`` storage next to the data, so a freshly booted worker
# seeds its optimizer with real cardinalities instead of rescanning every
# relation on its first plans.  The payload is plain JSON-compatible data.


def statistics_payload(database: PhysicalDatabase) -> dict:
    """Force statistics for every relation and return them as a JSON payload.

    The inverse of :func:`preload_statistics`: the payload round-trips through
    JSON and, applied to an equal database, reproduces exactly the statistics
    a cold scan would compute.
    """
    statistics = statistics_for(database)
    relations = {}
    for name in sorted(database.vocabulary.predicates):
        summary = statistics.relation(name)
        relations[name] = {
            "arity": summary.arity,
            "rows": summary.rows,
            "distinct": list(summary.distinct),
            "estimated": summary.estimated,
        }
    return {
        "domain_size": statistics.domain_size,
        "active_domain_size": statistics.active_domain_size,
        "relations": relations,
    }


def preload_statistics(database: PhysicalDatabase, payload: Mapping[str, object]) -> Statistics:
    """Seed *database*'s statistics cache from a persisted payload.

    The validation here is *schema-level* only: relations missing from the
    vocabulary, arity mismatches and malformed entries are ignored (worst
    case: a lazy recount).  It cannot detect a payload measured on
    *different contents* of the same schema — the caller owns that guarantee
    (the snapshot store does, by fingerprint-verifying the data the payload
    was stored beside before handing either out).  Summaries already
    computed on this instance are never overwritten.

    When no statistics exist on the instance yet, the payload's
    ``active_domain_size`` seeds the summary directly, sparing the boot-time
    every-tuple scan that computing it fresh would cost.  Any other section
    (such as the ``"observed"`` cardinalities older stores carry) is ignored.
    """
    statistics = database.__dict__.get("_statistics")
    if statistics is None:
        persisted_size = payload.get("active_domain_size")
        statistics = Statistics(
            database,
            active_domain_size=persisted_size if isinstance(persisted_size, int) else None,
        )
        object.__setattr__(database, "_statistics", statistics)
    relations = payload.get("relations", {})
    if not isinstance(relations, Mapping):
        return statistics
    for name, entry in relations.items():
        if name in statistics._relations or not isinstance(entry, Mapping):
            continue
        if database.vocabulary.predicates.get(name) != entry.get("arity"):
            continue
        try:
            summary = RelationStatistics(
                name=name,
                arity=int(entry["arity"]),
                rows=int(entry["rows"]),
                distinct=tuple(int(value) for value in entry["distinct"]),
                estimated=bool(entry.get("estimated", False)),
            )
        except (KeyError, TypeError, ValueError):
            continue
        if len(summary.distinct) != summary.arity:
            continue
        statistics._relations[name] = summary
    return statistics
