"""Lazily built hash indexes over the stored relations of a physical database.

The executor uses these for two access paths:

* **index scans** — an :class:`~repro.physical.plan.IndexScan` node (produced
  by the optimizer from a constant-binding selection over a scan) probes a
  key-prefix index instead of filtering a full scan;
* **indexed joins** — a :class:`~repro.physical.plan.NaturalJoin` whose build
  side is a bare relation scan reuses the stored prefix index as its hash
  table instead of rebuilding one per execution.

Indexes are built on demand per ``(relation, column positions)`` request and
cached on the database instance with the same ``object.__setattr__`` idiom as
``PhysicalDatabase.fingerprint`` — databases are immutable, so an index can
never go stale, and content-addressed cache keys elsewhere (fingerprints)
remain the sole invalidation mechanism.  Lazy relations are deliberately
*not* indexed: materializing them defeats their purpose.  The ``NE`` of
``Ph2`` has no index at all (no plan reads it); the derived ``PE``
(:class:`~repro.physical.database.PossiblyEqualRelation`) answers every
index request with a view that asks the relation per key, so index scans,
indexed joins and semi-join probes reach it without a build.

Index construction is thread-safe: the serving layer executes plans against
one shared database from many threads, so a per-database lock guards the
build; probing built indexes is lock-free (plain dict reads of immutable
values).
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from repro.physical.database import PhysicalDatabase, PossiblyEqualRelation
from repro.physical.relation import Relation

__all__ = ["DatabaseIndexes", "indexes_for"]

_EMPTY: tuple[tuple, ...] = ()


class DatabaseIndexes:
    """Hash indexes (value tuple -> matching rows) for one immutable database."""

    def __init__(self, database: PhysicalDatabase) -> None:
        self._database = database
        self._prefix: dict[tuple[str, tuple[int, ...]], Mapping[tuple, tuple[tuple, ...]]] = {}
        self._scalar: dict[tuple[str, int], Mapping[object, tuple[tuple, ...]]] = {}
        self._scalar_columns: dict[tuple[str, int], Mapping[object, tuple[tuple, ...]]] = {}
        self._columnar: dict[tuple[str, tuple[int, ...]], tuple] = {}
        self._lock = threading.Lock()
        self.built = 0  # number of distinct indexes constructed (observability)

    def prefix(self, relation: str, positions: tuple[int, ...]) -> Mapping[tuple, tuple[tuple, ...]] | None:
        """Index of *relation* on the given column positions, or ``None``.

        Returns ``None`` for ``NE`` (no index is built for it) and for empty
        position tuples.  The returned mapping sends each key tuple — the
        row's values at ``positions``, in that order — to the tuple of full
        rows carrying it; only its ``get`` is used.
        """
        if not positions:
            return None
        stored = self._database.relation(relation)
        if not isinstance(stored, Relation):
            return self.computed(relation, positions)
        key = (relation, positions)
        index = self._prefix.get(key)
        if index is None:
            with self._lock:
                index = self._prefix.get(key)
                if index is None:
                    buckets: dict[tuple, list[tuple]] = {}
                    for row in stored.tuples:
                        buckets.setdefault(tuple(row[i] for i in positions), []).append(row)
                    index = {value: tuple(rows) for value, rows in buckets.items()}
                    self._prefix[key] = index
                    self.built += 1
        return index

    def column(self, relation: str, position: int) -> Mapping[tuple, tuple[tuple, ...]] | None:
        """Single-column convenience wrapper around :meth:`prefix`."""
        return self.prefix(relation, (position,))

    def scalar(self, relation: str, position: int) -> Mapping[object, tuple[tuple, ...]] | None:
        """Single-column index keyed by the bare value instead of a 1-tuple.

        A re-keyed view of ``prefix(relation, (position,))`` (same buckets,
        same rows), cached alongside it.  The vectorized executor probes this
        on single-column joins: bare string keys hash from their cached hash,
        where 1-tuple keys re-combine it on every lookup, and the probe side
        never has to build key tuples at all.
        """
        index = self.prefix(relation, (position,))
        if index is None or isinstance(index, _ComputedIndex):
            return self.computed(relation, (position,), scalar=True)
        key = (relation, position)
        view = self._scalar.get(key)
        if view is None:
            with self._lock:
                view = self._scalar.get(key)
                if view is None:
                    view = {value: rows for (value,), rows in index.items()}
                    self._scalar[key] = view
        return view

    def scalar_columns(self, relation: str, position: int) -> Mapping[object, tuple[tuple, ...]] | None:
        """Scalar index with each bucket pre-transposed to column tuples.

        Maps the bare key value to ``(col0_values, col1_values, ...)`` of the
        matching rows.  The vectorized executor's indexed semi-join probe
        concatenates these buckets columnwise, so no row tuple is ever built
        or re-transposed on the probe path.
        """
        base = self.scalar(relation, position)
        if base is None or isinstance(base, _ComputedIndex):
            return self.computed(relation, (position,), scalar=True, columns=True)
        key = (relation, position)
        view = self._scalar_columns.get(key)
        if view is None:
            with self._lock:
                view = self._scalar_columns.get(key)
                if view is None:
                    view = {value: tuple(zip(*rows)) for value, rows in base.items()}
                    self._scalar_columns[key] = view
        return view

    def columnar(
        self, relation: str, positions: tuple[int, ...]
    ) -> tuple[Mapping, tuple[tuple, ...], bool] | None:
        """``(buckets, columns, unique)`` join image of *relation*, or ``None``.

        ``columns`` is the full relation transposed (one value tuple per
        column, rows in the deterministic sorted-by-repr order); ``buckets``
        maps each key — a bare value for single-column *positions*, a tuple
        otherwise — to its **row indices** into those columns: a bare ``int``
        when every key is distinct (``unique=True``), else a list.  This is
        exactly the vectorized executor's fresh-build layout, so a cached
        entry replaces the whole per-execution build and probes take the
        fast index-gather path.  ``None`` for lazy relations, as ever.
        """
        if not positions:
            return None
        stored = self._database.relation(relation)
        if not isinstance(stored, Relation):
            return None
        key = (relation, positions)
        entry = self._columnar.get(key)
        if entry is None:
            with self._lock:
                entry = self._columnar.get(key)
                if entry is None:
                    ordered = sorted(stored.tuples, key=repr)
                    columns = tuple(zip(*ordered)) if ordered else ()
                    if len(positions) == 1:
                        keys: Sequence = columns[positions[0]] if columns else ()
                    else:
                        keys = list(zip(*(columns[p] for p in positions))) if columns else []
                    count = len(ordered)
                    flat = dict(zip(keys, range(count)))
                    if len(flat) == count:
                        buckets: Mapping = flat
                        unique = True
                    else:
                        grouped: dict = {}
                        for index, value in enumerate(keys):
                            bucket = grouped.get(value)
                            if bucket is None:
                                grouped[value] = [index]
                            else:
                                bucket.append(index)
                        buckets = grouped
                        unique = False
                    entry = self._columnar[key] = (buckets, columns, unique)
                    self.built += 1
        return entry

    def computed(
        self,
        relation: str,
        positions: tuple[int, ...],
        *,
        scalar: bool = False,
        columns: bool = False,
        among: frozenset | set | None = None,
    ) -> "_ComputedIndex | None":
        """A per-key view of a computed relation (``PE``), or ``None``.

        *scalar* keys it by the bare value of a single position; *columns*
        returns each bucket transposed, as :meth:`scalar_columns` does;
        *among* keeps only the rows whose other column lies in it.  Nothing
        is built or cached: each ``get`` asks the relation.
        """
        stored = self._database.relation(relation)
        if not isinstance(stored, PossiblyEqualRelation):
            return None
        return _ComputedIndex(stored, positions, scalar, columns, among)

    def lookup(self, relation: str, positions: tuple[int, ...], key: tuple) -> tuple[tuple, ...] | None:
        """Rows of *relation* whose *positions* equal *key*; ``None`` = no index."""
        index = self.prefix(relation, positions)
        if index is None:
            return None
        return index.get(key, _EMPTY)


class _ComputedIndex:
    """The index interface (``get``) of ``PE``, answered per key."""

    __slots__ = ("_relation", "_positions", "_scalar", "_columns", "_partners")

    def __init__(
        self,
        relation: PossiblyEqualRelation,
        positions: tuple[int, ...],
        scalar: bool,
        columns: bool,
        among: frozenset | set | None,
    ) -> None:
        self._relation = relation
        self._positions = positions
        self._scalar = scalar
        self._columns = columns
        self._partners = relation.partners(among)

    def get(self, key, default=None):
        if self._scalar:
            key = (key,)
        if len(self._positions) == 2:
            pair = key if self._positions == (0, 1) else key[::-1]
            if pair not in self._relation:
                return default
            return tuple((value,) for value in pair) if self._columns else (pair,)
        (value,) = key
        partners = self._partners(value)
        if not partners:
            return default
        pair = ((value,) * len(partners), partners)
        if self._positions == (1,):
            pair = pair[::-1]
        return pair if self._columns else tuple(zip(*pair))

    def __bool__(self) -> bool:
        return True  # emptiness is only known per key


def indexes_for(database: PhysicalDatabase) -> DatabaseIndexes:
    """The (lazily created, instance-cached) index set of *database*."""
    cached = database.__dict__.get("_indexes")
    if cached is None:
        cached = DatabaseIndexes(database)
        object.__setattr__(database, "_indexes", cached)
    return cached
