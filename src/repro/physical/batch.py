"""Vectorized column-batch execution of relational-algebra plans.

The tuple-at-a-time executor of :mod:`repro.physical.algebra` pays Python
interpreter overhead — a generator frame switch, a tuple build, a handful of
attribute lookups — **once per tuple per operator**.  With the optimizer
(PR 2), sideways information passing (PR 4) and prepared plans (PR 5) in
place, that per-tuple overhead is the dominant remaining hot-path cost.
This module removes it by processing **column batches**: stdlib-only
per-column sequences of up to :data:`DEFAULT_BATCH_SIZE` rows that flow
through the same operator tree.

* **Batch scans** slice stored relations columnwise from a per-database
  columnar cache (built once per relation, cached on the immutable database
  instance exactly like the hash indexes of :mod:`repro.physical.indexes`).
* **Selections** evaluate structured bindings/equalities as vectorized mask
  passes with *selection-vector* semantics: the batch keeps its columns and
  carries a list of surviving row indices, so consecutive selections refine
  one mask over the same columns without copying a single value.  This is
  the executor's fusion rule — adjacent Selection/Projection/Rename
  operators collapse into column re-wiring plus one mask on the producing
  batch.  It is safe exactly because the compiler/optimizer only emit
  *structured* conditions (conjunctive, side-effect-free); an opaque
  ``condition`` callable falls back to row-at-a-time evaluation inside the
  batch.
* **Projections** and renames are pure column re-wiring with no per-tuple
  work.
* **Joins** (equi/natural/semi/anti) build hash tables per batch with
  C-speed ``zip`` key extraction and probe with one dict lookup per row;
  a build side that is a bare relation scan still reuses the stored prefix
  index, and semi-joins over indexed scans still probe per key.  A build
  whose keys repeat probes the distinct rows of a column-dropping
  projection, so no duplicate probe row is multiplied by the fan-out.
* **Pipeline breakers** (the final table, memoized shared subplans, join
  build sides, difference/anti-join filters) materialize batches directly
  into row sets via ``zip(*columns)``.

One path runs whether or not anyone watches.  A
:class:`~repro.observability.explain.PlanProfiler` meters the operators that
run (per-node rows, duplicates included, counted once per batch; a join
fused into its projection reports its own rows; a shared-subplan replay is
a memo hit), and a resource ``account`` is billed for the access path that
is taken (scans charge the rows they read, index scans the rows they
return, index-backed join builds nothing).  Observer checks guard only
those hook calls: no operator or access path depends on them.
``execute(..., vectorize=False)`` runs the tuple executor of
:mod:`repro.physical.algebra`, which has no hooks and serves as the
answers-only reference.
"""

from __future__ import annotations

from itertools import chain
from time import perf_counter
from typing import Iterator, Mapping, Sequence

from repro.errors import EvaluationError
from repro.observability.accounting import current_account
from repro.physical.algebra import _ExecutionContext, probed_within
from repro.physical.database import PhysicalDatabase, PossiblyEqualRelation
from repro.physical.indexes import indexes_for
from repro.physical.plan import (
    ActiveDomain,
    AntiJoin,
    CrossProduct,
    Difference,
    EquiJoin,
    IndexScan,
    LiteralTable,
    NaturalJoin,
    PlanNode,
    Projection,
    RenameColumns,
    ScanRelation,
    Selection,
    SemiJoin,
    Table,
    UnionAll,
)
from repro.physical.relation import Relation
from repro.resilience.deadlines import current_deadline

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ColumnBatch",
    "columnar_relation",
    "execute_batched",
]

#: Rows a scan packs into one batch.  Scan, filter and join throughput keeps
#: improving up to a few thousand rows as per-batch overhead amortizes, then
#: flattens; 4096 is the smallest size within noise of the fastest measured,
#: and smaller batches only bound peak memory these workloads never stress.
DEFAULT_BATCH_SIZE = 4096


class ColumnBatch:
    """One batch of rows in columnar form, with selection-vector semantics.

    ``columns`` holds one sequence per output column, all of physical length
    ``length``.  ``sel`` is ``None`` (every physical row is live) or a list
    of physical row indices, in order — the *selection vector*.  Operators
    that only filter (selections, semi/anti-joins, difference probes) refine
    ``sel`` and share the column sequences untouched; operators that need
    dense data (joins, pipeline breakers) gather once via :meth:`compact`.

    Column sequences are treated as immutable once a batch is built —
    batches may alias each other's columns (projection is re-wiring, rename
    is a pass-through), so nothing may mutate them in place.
    """

    __slots__ = ("columns", "length", "sel")

    def __init__(self, columns: tuple[Sequence, ...], length: int, sel: list[int] | None = None) -> None:
        self.columns = columns
        self.length = length
        self.sel = sel

    @property
    def count(self) -> int:
        """Number of *live* rows (what the profiler and charges count)."""
        sel = self.sel
        return self.length if sel is None else len(sel)

    def compact(self) -> tuple[Sequence, ...]:
        """The live rows' columns, gathered through the selection vector."""
        sel = self.sel
        if sel is None:
            return self.columns
        return tuple([column[i] for i in sel] for column in self.columns)

    def physical_indices(self) -> Sequence[int]:
        """Physical index of each live row, in live-row order."""
        sel = self.sel
        return range(self.length) if sel is None else sel

    def row_tuples(self) -> list[tuple]:
        """The live rows as tuples (used at pipeline breakers); C-speed zip."""
        columns = self.compact()
        if not columns:
            return [()] * self.count
        return list(zip(*columns))

    def key_tuples(self, positions: Sequence[int]) -> list[tuple]:
        """The live rows' key tuples over the given column positions."""
        sel = self.sel
        if sel is None:
            keys = [self.columns[p] for p in positions]
        else:
            keys = [[column[i] for i in sel] for column in (self.columns[p] for p in positions)]
        if not keys:
            return [()] * self.count
        return list(zip(*keys))


def columnar_relation(database: PhysicalDatabase, name: str) -> tuple[tuple[tuple, ...], int]:
    """``(columns, row_count)`` of a stored relation, cached on the instance.

    Columns are tuples in the relation's deterministic iteration order
    (sorted by repr, matching ``Relation.__iter__``).  Cached with the same
    ``object.__setattr__`` idiom as the hash indexes — databases are
    immutable, so the columnar image can never go stale.  Only materialized
    :class:`~repro.physical.relation.Relation` instances have one: the lazy
    ``NE`` of ``Ph2`` is never scanned (compiled plans read its complement
    ``PE``), and materializing it would defeat its purpose.  ``PE`` itself
    is enumerated, uncached, by the rare plan that binds neither column.
    """
    cache = database.__dict__.get("_columnar")
    if cache is None:
        cache = {}
        object.__setattr__(database, "_columnar", cache)
    entry = cache.get(name)
    if entry is None:
        relation = database.relation(name)
        if isinstance(relation, PossiblyEqualRelation):
            ordered = sorted(relation, key=repr)
            return (tuple(zip(*ordered)) if ordered else ()), len(ordered)
        if not isinstance(relation, Relation):
            raise EvaluationError(f"relation {name!r} is lazy and has no columnar image")
        ordered = sorted(relation.tuples, key=repr)
        columns = tuple(zip(*ordered)) if ordered else ()
        # Concurrent builders compute the same value; last write wins.
        entry = cache[name] = (columns, len(ordered))
    return entry


def execute_batched(
    plan: PlanNode,
    database: PhysicalDatabase,
    *,
    use_indexes: bool = True,
    profiler=None,
    batch_rows: int = DEFAULT_BATCH_SIZE,
) -> Table:
    """Execute *plan* on column batches; the vectorized twin of ``execute``.

    Same answers as :func:`repro.physical.algebra.execute` with
    ``vectorize=False``.  *profiler* meters every node for EXPLAIN ANALYZE;
    it and the active resource account observe the execution without
    changing it.  *batch_rows* overrides the scan batch size (tests use it).
    """
    context = _BatchContext(database, use_indexes, profiler, batch_rows)
    context.mark_shared_subplans(plan)
    if profiler is not None:
        profiler.set_root(plan)
    return context.table(plan)


_NO_ROWS: tuple[tuple, ...] = ()


class _BatchContext(_ExecutionContext):
    """Batch-granular execution state; column resolution and shared-subplan
    marks are inherited from the tuple executor's context unchanged."""

    def __init__(
        self,
        database: PhysicalDatabase,
        use_indexes: bool,
        profiler=None,
        batch_rows: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(database, use_indexes)
        self.batch_rows = max(1, batch_rows)
        self.profiler = profiler
        # Captured once per execution (one thread-local read each).  The
        # deadline is enforced at pipeline-breaker materializations, so a
        # query that overran its budget stops between operators; the account
        # is charged len-based at base-relation access points, never per row.
        self.deadline = current_deadline()
        self.account = current_account()
        #: Shared subplans, materialized once as one deduplicated batch.
        self._batch_memo: dict[PlanNode, ColumnBatch] = {}

    # Materialization ----------------------------------------------------------

    def table(self, plan: PlanNode) -> Table:
        """Materialize the root *plan* into its result table."""
        if self.deadline is not None:
            self.deadline.check("plan materialization")
        # Resolve (and thereby validate) the whole tree's columns before
        # pulling a single batch, exactly like the tuple executor — a
        # malformed plan must raise EvaluationError, never produce rows.
        columns = self.columns(plan)
        # One C-driven pass: frozenset consumes the chained batch rows
        # directly (no intermediate set + copy).
        return Table.trusted(
            columns,
            frozenset(chain.from_iterable(batch.row_tuples() for batch in self.batches(plan))),
        )

    def batches(self, plan: PlanNode) -> Iterator[ColumnBatch]:
        """Stream *plan*'s batches; shared subplans are served from the memo."""
        if plan in self._shared:
            return self._shared_batches(plan)
        return self._metered(plan, self._batches(plan))

    def _shared_batches(self, plan: PlanNode) -> Iterator[ColumnBatch]:
        """A shared subplan, materialized on first use into one columnar batch
        (set-semantics dedup) and replayed, as a memo hit, everywhere else."""
        batch = self._batch_memo.get(plan)
        if batch is None:
            if self.deadline is not None:
                self.deadline.check("plan materialization")
            columns = self.columns(plan)
            rows = set(
                chain.from_iterable(
                    b.row_tuples() for b in self._metered(plan, self._batches(plan))
                )
            )
            # Width-preserving even when empty: consumers index columns by
            # position regardless of row count.
            packed = tuple(zip(*rows)) if rows else tuple(() for __ in columns)
            batch = self._batch_memo[plan] = ColumnBatch(packed, len(rows))
        elif self.profiler is not None:
            self.profiler.memo_hit(plan)
        if batch.length or not batch.columns:
            yield batch

    def _metered(self, plan: PlanNode, source: Iterator[ColumnBatch]) -> Iterator[ColumnBatch]:
        """*source* as the batches of *plan*, observed when a profiler is on."""
        if self.profiler is None:
            return source
        return self._observed(plan, source)

    def _observed(self, plan: PlanNode, source: Iterator[ColumnBatch]) -> Iterator[ColumnBatch]:
        """Meter a node's batches: exact row count, batch count, wall time.

        The hook granularity is the whole point of batching the profiler:
        one ``observe_batch`` call per batch instead of two clock reads per
        row.  ``observe_start`` fires on the first pull so a node that
        produces no batches still reports ``rows=0``, and never-pulled nodes
        keep reporting ``None``.
        """
        profiler = self.profiler
        profiler.observe_start(plan)
        while True:
            started = perf_counter()
            try:
                batch = next(source)
            except StopIteration:
                profiler.observe_tail(plan, perf_counter() - started)
                return
            profiler.observe_batch(plan, batch.count, perf_counter() - started)
            yield batch

    # Operators ----------------------------------------------------------------

    def _batches(self, plan: PlanNode) -> Iterator[ColumnBatch]:
        if isinstance(plan, ScanRelation):
            yield from self._scan_batches(plan.relation, charge=True)
            return
        if isinstance(plan, IndexScan):
            yield from self._index_scan_batches(plan)
            return
        if isinstance(plan, ActiveDomain):
            values = list(self.database.active_domain())
            size = self.batch_rows
            for start in range(0, len(values), size):
                chunk = values[start : start + size]
                yield ColumnBatch((chunk,), len(chunk))
            return
        if isinstance(plan, LiteralTable):
            width = len(plan.columns)
            for row in plan.rows:
                if len(row) != width:
                    raise EvaluationError(f"row {row!r} does not match columns {plan.columns!r}")
            rows = list(plan.rows)
            if rows:
                columns = tuple(zip(*rows)) if width else ()
                yield ColumnBatch(columns, len(rows))
            return
        if isinstance(plan, Selection):
            yield from self._selection_batches(plan)
            return
        if isinstance(plan, Projection):
            source_columns = self.columns(plan.source)
            indexes = [source_columns.index(column) for column in plan.columns]
            source = plan.source
            if source not in self._shared:
                # Fuse the projection into the join's probe gather so dropped
                # columns are never materialized.  The join is still metered
                # as its own node: projection keeps the row count.  (Shared
                # joins must materialize their full width for the memo.)
                if isinstance(source, NaturalJoin):
                    if any(c in self.columns(source.right) for c in self.columns(source.left)):
                        fused = self._natural_join_batches(source, keep=indexes)
                        yield from self._metered(source, fused)
                        return
                elif isinstance(source, EquiJoin) and source.pairs:
                    yield from self._metered(source, self._equi_join_batches(source, keep=indexes))
                    return
            for batch in self.batches(source):
                yield ColumnBatch(tuple(batch.columns[i] for i in indexes), batch.length, batch.sel)
            return
        if isinstance(plan, RenameColumns):
            yield from self.batches(plan.source)
            return
        if isinstance(plan, NaturalJoin):
            yield from self._natural_join_batches(plan)
            return
        if isinstance(plan, EquiJoin):
            yield from self._equi_join_batches(plan)
            return
        if isinstance(plan, CrossProduct):
            yield from self._cross_batches(plan.left, plan.right)
            return
        if isinstance(plan, UnionAll):
            columns = self.columns(plan)
            yield from self.batches(plan.left)
            yield from self._aligned_batches(plan.right, columns)
            return
        if isinstance(plan, Difference):
            yield from self._difference_batches(plan)
            return
        if isinstance(plan, SemiJoin):
            yield from self._semi_join_batches(plan)
            return
        if isinstance(plan, AntiJoin):
            yield from self._anti_join_batches(plan)
            return
        raise EvaluationError(f"unknown plan node: {plan!r}")

    # Access paths -------------------------------------------------------------

    def _scan_batches(self, relation_name: str, charge: bool) -> Iterator[ColumnBatch]:
        """Columnar slices of a stored relation."""
        account = self.account if charge else None
        size = self.batch_rows
        columns, total = columnar_relation(self.database, relation_name)
        for start in range(0, total, size):
            stop = min(start + size, total)
            if account is not None:
                account.rows_scanned += stop - start
            yield ColumnBatch(tuple(column[start:stop] for column in columns), stop - start)

    def _rows_to_batches(self, rows: Sequence[tuple], width: int) -> Iterator[ColumnBatch]:
        """Chunk already-materialized row tuples (index buckets) into batches."""
        size = self.batch_rows
        for start in range(0, len(rows), size):
            chunk = rows[start : start + size]
            columns = tuple(zip(*chunk)) if width else ()
            yield ColumnBatch(columns, len(chunk))

    def _index_scan_batches(self, plan: IndexScan) -> Iterator[ColumnBatch]:
        positions = tuple(plan.columns.index(column) for column, __ in plan.bindings)
        key = tuple(value for __, value in plan.bindings)
        if self.use_indexes:
            rows = indexes_for(self.database).lookup(plan.relation, positions, key)
            if rows is not None:
                if self.profiler is not None:
                    self.profiler.note_access(plan, "index")
                if self.account is not None:
                    self.account.rows_scanned += len(rows)
                yield from self._rows_to_batches(rows, len(plan.columns))
                return
        # Indexing disabled: filter scan.
        if self.profiler is not None:
            self.profiler.note_access(plan, "scan")
        if self.account is not None:
            self.account.rows_scanned += len(self.database.relation(plan.relation))
        for batch in self._scan_batches(plan.relation, charge=False):
            sel = None
            for position, value in zip(positions, key):
                column = batch.columns[position]
                if sel is None:
                    sel = [i for i, v in enumerate(column) if v == value]
                else:
                    sel = [i for i in sel if column[i] == value]
            yield ColumnBatch(batch.columns, batch.length, sel)

    # Filters ------------------------------------------------------------------

    def _selection_batches(self, plan: Selection) -> Iterator[ColumnBatch]:
        source_columns = self.columns(plan.source)
        if plan.condition is not None:
            # Opaque predicate: row-at-a-time inside the batch (the tuple
            # executor's semantics; nothing vectorizable about a callable).
            condition = plan.condition
            for batch in self.batches(plan.source):
                rows = batch.row_tuples()
                sel = [
                    physical
                    for physical, row in zip(batch.physical_indices(), rows)
                    if condition(dict(zip(source_columns, row)))
                ]
                yield ColumnBatch(batch.columns, batch.length, sel)
            return
        bindings = [(source_columns.index(column), value) for column, value in plan.bindings]
        groups = [[source_columns.index(column) for column in group] for group in plan.equalities]
        for batch in self.batches(plan.source):
            sel = batch.sel
            columns = batch.columns
            for position, value in bindings:
                column = columns[position]
                if sel is None:
                    sel = [i for i, v in enumerate(column) if v == value]
                else:
                    sel = [i for i in sel if column[i] == value]
            for group in groups:
                first = columns[group[0]]
                rest = [columns[position] for position in group[1:]]
                if sel is None:
                    if len(rest) == 1:
                        other = rest[0]
                        sel = [i for i, (a, b) in enumerate(zip(first, other)) if a == b]
                    else:
                        sel = [
                            i
                            for i in range(batch.length)
                            if all(column[i] == first[i] for column in rest)
                        ]
                elif len(rest) == 1:
                    other = rest[0]
                    sel = [i for i in sel if first[i] == other[i]]
                else:
                    sel = [i for i in sel if all(column[i] == first[i] for column in rest)]
            yield ColumnBatch(columns, batch.length, sel)

    def _aligned_batches(self, plan: PlanNode, columns: tuple[str, ...]) -> Iterator[ColumnBatch]:
        """Stream *plan*'s batches with columns reordered to *columns* — pure
        re-wiring, where the tuple executor rebuilt every row."""
        own = self.columns(plan)
        if own == columns:
            yield from self.batches(plan)
            return
        indexes = [own.index(column) for column in columns]
        for batch in self.batches(plan):
            yield ColumnBatch(tuple(batch.columns[i] for i in indexes), batch.length, batch.sel)

    def _difference_batches(self, plan: Difference) -> Iterator[ColumnBatch]:
        columns = self.columns(plan)
        excluded: set[tuple] = set()
        for batch in self._aligned_batches(plan.right, columns):
            excluded.update(batch.row_tuples())
        for batch in self.batches(plan.left):
            rows = batch.row_tuples()
            sel = [
                physical
                for physical, row in zip(batch.physical_indices(), rows)
                if row not in excluded
            ]
            yield ColumnBatch(batch.columns, batch.length, sel)

    # Joins --------------------------------------------------------------------

    def _join_buckets(self, build: PlanNode, key_positions: tuple[int, ...]):
        """``(buckets, build_cols, scalar, unique)`` hash table for a build side.

        The bucket layout is the one the batch probe wants: ``build_cols``
        holds the build side transposed (one sequence per column) and
        ``buckets`` maps each key to **row indices** into those columns — a
        bare ``int`` while every key is distinct (``unique=True``, the common
        functional-build case, driven entirely by C-level
        ``dict(zip(...))``), lists of ints after the first duplicate.

        Stored-relation builds, through any renames (which change column
        names, never positions or values), come from the cached
        :meth:`~repro.physical.indexes.DatabaseIndexes.columnar` image and
        cost nothing per execution; anything else is accumulated columnwise
        with C-speed extends (no row tuple is ever materialized).
        Single-column keys are bare values (``scalar=True``) so neither
        build nor probe ever constructs a key tuple.
        """
        scalar = len(key_positions) == 1
        if self.use_indexes:
            node = build
            while isinstance(node, RenameColumns):
                node = node.source
            if isinstance(node, ScanRelation):
                indexes = indexes_for(self.database)
                entry = indexes.columnar(node.relation, key_positions)
                if entry is not None:
                    if self.profiler is not None:
                        self.profiler.note_access(build, "index")
                    buckets, columns, unique = entry
                    if not unique and scalar:
                        # Duplicate-key scalar builds probe fastest from the
                        # pre-transposed per-key buckets (``build_cols is
                        # None`` signals parts mode to the probe): matching
                        # bucket columns concatenate with one C extend per
                        # key instead of an index gather per matched row.
                        parts = indexes.scalar_columns(node.relation, key_positions[0])
                        if parts is not None:
                            return parts, None, True, False
                    return buckets, columns, scalar, unique
                parts = indexes.computed(node.relation, key_positions, scalar=scalar, columns=True)
                if parts is not None:
                    # A computed relation (``PE``) is probed per key in parts mode.
                    if self.profiler is not None:
                        self.profiler.note_access(build, "index")
                    return parts, None, scalar, False
            elif probed_within(node, key_positions, self.database):
                among, __ = self._filter_keys(node)
                if self.profiler is not None:
                    self.profiler.note_access(build, "index")
                parts = indexes_for(self.database).computed(
                    node.source.relation, key_positions, scalar=True, columns=True, among=among
                )
                return parts, None, True, False
        if self.deadline is not None:
            self.deadline.check("join build")
        build_cols = None
        growable = False
        buckets: dict = {}
        total = 0
        unique = True
        for batch in self.batches(build):
            # Keys come out of the compacted columns (already gathered once
            # through the selection vector) rather than re-gathering.
            compacted = batch.compact()
            if scalar:
                keys = compacted[key_positions[0]]
            else:
                keys = list(zip(*map(compacted.__getitem__, key_positions)))
            if build_cols is None:
                # Single-batch builds (the common case) keep the compacted
                # columns as-is; only a second batch pays for list copies.
                build_cols = compacted
            else:
                if not growable:
                    build_cols = [list(column) for column in build_cols]
                    growable = True
                for target, column in zip(build_cols, compacted):
                    target.extend(column)
            base = total
            total += batch.count
            if unique:
                flat = dict(zip(keys, range(base, total)))
                if len(flat) == total - base and buckets.keys().isdisjoint(flat):
                    buckets.update(flat)
                    continue
                # First duplicate key: regroup what we have into index lists
                # and fall through to the per-key loop for this batch onward.
                unique = False
                buckets = {key: [i] for key, i in buckets.items()}
            for offset, key in enumerate(keys, base):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [offset]
                else:
                    bucket.append(offset)
        if build_cols is None:
            # No batches at all (empty build side): keep the output width.
            build_cols = tuple(() for __ in self.columns(build))
        return buckets, tuple(build_cols) if growable else build_cols, scalar, unique

    def _probe_batches(
        self,
        probe: PlanNode,
        probe_key: Sequence[int],
        buckets: Mapping,
        build_cols: tuple | None,
        scalar: bool,
        unique: bool,
        out_spec: Sequence[tuple[str, int]],
    ) -> Iterator[ColumnBatch]:
        """Hash-probe *probe*'s batches.

        *out_spec* lists the output columns in order as ``("p", i)`` (probe
        column *i*) or ``("b", j)`` (build column *j*, an index into
        *build_cols*).  A fused projection passes only the columns it
        keeps, so dropped columns are never gathered at all.

        When the build side has duplicate keys (``unique=False``, including
        parts mode) every probe row is multiplied by its key's fan-out, so
        a probe that is a column-dropping :class:`Projection` probes its
        distinct rows only (:meth:`_distinct_batches`).  Shared subplans are
        distinct already, and a unique build does not multiply anything.
        """
        get = buckets.get
        if (
            not unique
            and isinstance(probe, Projection)
            and probe not in self._shared
            and len(probe.columns) < len(self.columns(probe.source))
        ):
            source = self._metered(probe, self._distinct_batches(self._batches(probe)))
        else:
            source = self.batches(probe)
        for batch in source:
            sel = batch.sel
            columns = batch.columns
            if scalar:
                column = columns[probe_key[0]]
                keys = column if sel is None else map(column.__getitem__, sel)
            else:
                keys = batch.key_tuples(probe_key)
            # The gather list is built in *physical* index space (zipping the
            # live indices with the C-driven ``map(get, ...)`` lookups), so
            # output columns need one gather over the raw columns instead of
            # compact-then-gather.
            gather: list[int] = []
            append_gather = gather.append
            extend_gather = gather.extend
            live = range(batch.length) if sel is None else sel
            if build_cols is None:
                # Parts mode: buckets map each key to its matching rows
                # pre-transposed as column tuples; build output columns
                # concatenate with one C extend per key.
                build_acc: list = [[] if side == "b" else None for side, __ in out_spec]
                targets = [
                    (acc, pos)
                    for acc, (side, pos) in zip(build_acc, out_spec)
                    if side == "b"
                ]
                for i, part in zip(live, map(get, keys)):
                    if part is not None:
                        n = len(part[0])
                        if n == 1:
                            append_gather(i)
                        else:
                            extend_gather([i] * n)
                        for acc, pos in targets:
                            acc.extend(part[pos])
                out = [
                    acc if acc is not None else [columns[pos][i] for i in gather]
                    for acc, (__, pos) in zip(build_acc, out_spec)
                ]
                yield ColumnBatch(tuple(out), len(gather))
                continue
            # Buckets: key -> row index into build_cols (unique) or index list.
            bgather: list[int] = []
            if unique:
                append_b = bgather.append
                for i, j in zip(live, map(get, keys)):
                    if j is not None:
                        append_gather(i)
                        append_b(j)
            else:
                append_b = bgather.append
                extend_b = bgather.extend
                for i, indices in zip(live, map(get, keys)):
                    if indices:
                        if len(indices) == 1:
                            append_gather(i)
                            append_b(indices[0])
                        else:
                            extend_gather([i] * len(indices))
                            extend_b(indices)
            out = [
                [columns[pos][i] for i in gather]
                if side == "p"
                else [build_cols[pos][j] for j in bgather]
                for side, pos in out_spec
            ]
            yield ColumnBatch(tuple(out), len(gather))

    def _distinct_batches(self, source: Iterator[ColumnBatch]) -> Iterator[ColumnBatch]:
        """*source*'s rows with duplicates dropped, across batches."""
        seen: set[tuple] = set()
        for batch in source:
            fresh = [row for row in dict.fromkeys(batch.row_tuples()) if row not in seen]
            if fresh:
                seen.update(fresh)
                yield ColumnBatch(tuple(zip(*fresh)), len(fresh))

    def _natural_join_batches(
        self, plan: NaturalJoin, keep: Sequence[int] | None = None
    ) -> Iterator[ColumnBatch]:
        left_columns = self.columns(plan.left)
        right_columns = self.columns(plan.right)
        shared = tuple(column for column in left_columns if column in right_columns)
        right_only = tuple(column for column in right_columns if column not in shared)
        if not shared:
            assert keep is None  # fusion never reaches the cross-product path
            yield from self._cross_batches(plan.left, plan.right)
            return
        left_key = [left_columns.index(column) for column in shared]
        right_key = tuple(right_columns.index(column) for column in shared)
        right_rest = [right_columns.index(column) for column in right_only]
        n_left = len(left_columns)
        if keep is None:
            out_spec = [("p", i) for i in range(n_left)] + [("b", i) for i in right_rest]
        else:
            out_spec = [
                ("p", p) if p < n_left else ("b", right_rest[p - n_left]) for p in keep
            ]
        buckets, build_cols, scalar, unique = self._join_buckets(plan.right, right_key)
        yield from self._probe_batches(
            plan.left, left_key, buckets, build_cols, scalar, unique, out_spec
        )

    def _equi_join_batches(
        self, plan: EquiJoin, keep: Sequence[int] | None = None
    ) -> Iterator[ColumnBatch]:
        if not plan.pairs:
            assert keep is None  # fusion never reaches the cross-product path
            yield from self._cross_batches(plan.left, plan.right)
            return
        left_columns = self.columns(plan.left)
        right_columns = self.columns(plan.right)
        left_key = [left_columns.index(left) for left, __ in plan.pairs]
        right_key = tuple(right_columns.index(right) for __, right in plan.pairs)
        n_left = len(left_columns)
        if keep is None:
            out_spec = [("p", i) for i in range(n_left)] + [
                ("b", i) for i in range(len(right_columns))
            ]
        else:
            out_spec = [("p", p) if p < n_left else ("b", p - n_left) for p in keep]
        buckets, build_cols, scalar, unique = self._join_buckets(plan.right, right_key)
        yield from self._probe_batches(
            plan.left, left_key, buckets, build_cols, scalar, unique, out_spec
        )

    def _cross_batches(self, left: PlanNode, right: PlanNode) -> Iterator[ColumnBatch]:
        right_rows: list[ColumnBatch] = [batch for batch in self.batches(right) if batch.count]
        right_cols: list[list] = [[] for __ in range(len(self.columns(right)))]
        for batch in right_rows:
            for target, column in zip(right_cols, batch.compact()):
                target.extend(column)
        k = len(right_cols[0]) if right_cols else sum(batch.count for batch in right_rows)
        for batch in self.batches(left):
            left_cols = batch.compact()
            m = batch.count
            out = [[value for value in column for __ in range(k)] for column in left_cols]
            out.extend(column * m for column in right_cols)
            yield ColumnBatch(tuple(out), m * k)

    # Semi/anti joins ----------------------------------------------------------

    def _filter_keys(self, plan: SemiJoin | AntiJoin) -> tuple[set, bool]:
        """``(keys, scalar)``: distinct keys of a semi/anti-join's filter side.

        Single-column keys are bare values (``scalar=True``), collected with
        a C-speed ``set.update`` over the key column; multi-column keys are
        tuples, exactly like the tuple executor's ``_filter_keys``.
        """
        if self.deadline is not None:
            self.deadline.check("filter build")
        filter_columns = self.columns(plan.filter)
        positions = [filter_columns.index(column) for __, column in plan.pairs]
        scalar = len(positions) == 1
        keys: set = set()
        for batch in self.batches(plan.filter):
            if scalar:
                position = positions[0]
                sel = batch.sel
                column = batch.columns[position]
                keys.update(column if sel is None else map(column.__getitem__, sel))
            else:
                keys.update(batch.key_tuples(positions))
        return keys, scalar

    def _key_filtered(
        self, source: PlanNode, positions: tuple[int, ...], keys: set, scalar: bool, keep: bool
    ) -> Iterator[ColumnBatch]:
        """Source batches masked by key-set membership (semi/anti probe)."""
        if scalar:
            position = positions[0]
            for batch in self.batches(source):
                column = batch.columns[position]
                sel = batch.sel
                if sel is None:
                    if keep:
                        sel = [i for i, v in enumerate(column) if v in keys]
                    else:
                        sel = [i for i, v in enumerate(column) if v not in keys]
                elif keep:
                    sel = [i for i in sel if column[i] in keys]
                else:
                    sel = [i for i in sel if column[i] not in keys]
                yield ColumnBatch(batch.columns, batch.length, sel)
            return
        for batch in self.batches(source):
            key_rows = batch.key_tuples(positions)
            sel = [
                physical
                for physical, key in zip(batch.physical_indices(), key_rows)
                if (key in keys) is keep
            ]
            yield ColumnBatch(batch.columns, batch.length, sel)

    def _semi_join_batches(self, plan: SemiJoin) -> Iterator[ColumnBatch]:
        source_columns = self.columns(plan.source)
        positions = tuple(source_columns.index(column) for column, __ in plan.pairs)
        keys, scalar = self._filter_keys(plan)
        if not keys:
            return
        if self.use_indexes and plan.pairs and isinstance(plan.source, ScanRelation):
            # The sideways payoff: probe the stored prefix index once per key
            # instead of scanning the whole relation.  Buckets are disjoint
            # per key, so no row is produced twice.
            indexes = indexes_for(self.database)
            if scalar:
                # Pre-transposed buckets: the probe concatenates column
                # tuples per matching key — no row tuple is built and nothing
                # is re-transposed.  Buckets are disjoint per key, so no row
                # is produced twice.
                columnar = indexes.scalar_columns(plan.source.relation, positions[0])
                if columnar is not None:
                    if self.profiler is not None:
                        self.profiler.note_access(plan, "index")
                    get = columnar.get
                    parts = [part for part in map(get, keys) if part is not None]
                    if parts:
                        # zip(*parts) regroups the per-key column tuples by
                        # output column entirely in C.
                        out = tuple(
                            list(chain.from_iterable(group)) for group in zip(*parts)
                        )
                        yield ColumnBatch(out, len(out[0]) if out else 0)
                    return
            else:
                index = indexes.prefix(plan.source.relation, positions)
                if index is not None:
                    if self.profiler is not None:
                        self.profiler.note_access(plan, "index")
                    width = len(source_columns)
                    collected: list[tuple] = []
                    size = self.batch_rows
                    for key in keys:
                        collected.extend(index.get(key, _NO_ROWS))
                        if len(collected) >= size:
                            yield from self._rows_to_batches(collected, width)
                            collected = []
                    if collected:
                        yield from self._rows_to_batches(collected, width)
                    return
        yield from self._key_filtered(plan.source, positions, keys, scalar, keep=True)

    def _anti_join_batches(self, plan: AntiJoin) -> Iterator[ColumnBatch]:
        source_columns = self.columns(plan.source)
        positions = tuple(source_columns.index(column) for column, __ in plan.pairs)
        keys, scalar = self._filter_keys(plan)
        yield from self._key_filtered(plan.source, positions, keys, scalar, keep=False)
