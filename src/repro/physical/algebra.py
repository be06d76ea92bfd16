"""Execution of relational-algebra plans over a physical database.

The executor is pull-based and *streaming*: every operator exposes its rows
as an iterator, and tuples flow straight through selections, projections,
renames and unions without intermediate materialization.  Rows are only
collected into concrete sets at **pipeline breakers** — the build side of a
hash join, the right side of a set difference, and the final result — plus
at any subplan that occurs more than once in the tree, which is materialized
a single time into a **memo table** and replayed for every occurrence (the
execution half of the optimizer's common-subplan deduplication; plan nodes
are frozen dataclasses, so structurally equal subtrees compare equal).

Two access paths consult the per-database hash indexes of
:mod:`repro.physical.indexes` instead of scanning:

* :class:`~repro.physical.plan.IndexScan` probes a key-prefix index with its
  constant bindings;
* a :class:`~repro.physical.plan.NaturalJoin` whose build side is a bare
  relation scan reuses the stored prefix index as its hash table.

Pass ``use_indexes=False`` to force the scan-and-filter paths (the
benchmarks' naive configuration); answers are identical either way.

This tuple-at-a-time executor is the answers-only *reference*: by default
:func:`execute` dispatches to the vectorized column-batch executor of
:mod:`repro.physical.batch`, the one path that serves, profiles and bills
queries.  Pass ``vectorize=False`` to run the executor below, which has no
profiler, account or deadline hooks; answers are identical either way.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import EvaluationError
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

__all__ = [
    "execute",
    "node_label",
    "output_columns",
    "plan_size",
    "plan_to_text",
]


def execute(
    plan: PlanNode,
    database: PhysicalDatabase,
    *,
    use_indexes: bool = True,
    profiler=None,
    vectorize: bool = True,
) -> Table:
    """Execute *plan* against *database* and return the result table.

    *vectorize* selects the executor: the column-batch path (default) or,
    with ``False``, the tuple-at-a-time reference.  Answers are identical
    either way.  *profiler* (a
    :class:`~repro.observability.explain.PlanProfiler`) meters every node
    of the column-batch path for EXPLAIN ANALYZE; the reference ignores it.
    """
    if vectorize:
        from repro.physical.batch import execute_batched

        return execute_batched(plan, database, use_indexes=use_indexes, profiler=profiler)
    context = _ExecutionContext(database, use_indexes)
    context.mark_shared_subplans(plan)
    return context.table(plan)


def output_columns(plan: PlanNode, database: PhysicalDatabase) -> tuple[str, ...]:
    """The column tuple *plan* produces, validating operator wiring as it goes."""
    return _ExecutionContext(database, use_indexes=False).columns(plan)


class _ExecutionContext:
    """Per-execution state: column resolution, shared-subplan memo, indexes."""

    def __init__(self, database: PhysicalDatabase, use_indexes: bool) -> None:
        self.database = database
        self.use_indexes = use_indexes
        self._memo: dict[PlanNode, Table] = {}
        self._shared: frozenset[PlanNode] = frozenset()

    def mark_shared_subplans(self, root: PlanNode) -> None:
        """Record which subplans occur more than once (by structural equality).

        Those nodes are materialized a single time into the memo and replayed
        at every occurrence; everything else streams.  Below a repeated node
        the walk does not descend twice — its children only ever execute once.

        Sharing is a structural property of the immutable plan tree, so the
        walk's result is cached on the root (the ``cached_hash`` idiom):
        cached plans pay for the analysis once, not per execution.
        """
        cached = root.__dict__.get("_cached_shared")
        if cached is not None:
            self._shared = cached
            return
        counts: dict[PlanNode, int] = {}
        pending = [root]
        while pending:
            node = pending.pop()
            seen = counts.get(node, 0)
            counts[node] = seen + 1
            if seen == 0:
                pending.extend(node.children())
        shared = frozenset(node for node, count in counts.items() if count > 1)
        object.__setattr__(root, "_cached_shared", shared)
        self._shared = shared

    # Column resolution --------------------------------------------------------

    def columns(self, plan: PlanNode) -> tuple[str, ...]:
        # Column resolution is structural per (database, plan) — the arity
        # checks depend on the database's vocabulary — so the result is
        # cached on the immutable node with the database it was checked
        # against (the ``cached_hash`` idiom).  It dies with the plan, so a
        # substituted per-binding plan leaves nothing behind; a node run
        # against another database is checked again, and failed resolutions
        # are never stored, so wiring errors re-raise.
        cached = plan.__dict__.get("_cached_columns")
        if cached is not None and cached[0] is self.database:
            return cached[1]
        columns = self._resolve_columns(plan)
        object.__setattr__(plan, "_cached_columns", (self.database, columns))
        return columns

    def _resolve_columns(self, plan: PlanNode) -> tuple[str, ...]:
        if isinstance(plan, (ScanRelation, IndexScan)):
            arity = self.database.relation(plan.relation).arity  # raises on unknown predicates
            if len(plan.columns) != arity:
                raise EvaluationError(
                    f"scan of {plan.relation!r} names {len(plan.columns)} columns but the relation has arity {arity}"
                )
            if isinstance(plan, IndexScan):
                for column, __ in plan.bindings:
                    if column not in plan.columns:
                        raise EvaluationError(f"index scan binds unknown column {column!r}")
            return plan.columns
        if isinstance(plan, ActiveDomain):
            return (plan.column,)
        if isinstance(plan, LiteralTable):
            return plan.columns
        if isinstance(plan, Selection):
            columns = self.columns(plan.source)
            referenced = plan.referenced_columns()
            if referenced is not None:
                missing = [column for column in referenced if column not in columns]
                if missing:
                    raise EvaluationError(f"selection references missing columns: {missing}")
            return columns
        if isinstance(plan, Projection):
            self.columns(plan.source)
            return plan.columns
        if isinstance(plan, RenameColumns):
            mapping = dict(plan.renaming)
            columns = tuple(mapping.get(column, column) for column in self.columns(plan.source))
            if len(set(columns)) != len(columns):
                raise EvaluationError(f"renaming produces duplicate columns: {columns}")
            return columns
        if isinstance(plan, NaturalJoin):
            left = self.columns(plan.left)
            right = self.columns(plan.right)
            return left + tuple(column for column in right if column not in left)
        if isinstance(plan, (EquiJoin, CrossProduct)):
            left = self.columns(plan.left)
            right = self.columns(plan.right)
            overlap = set(left) & set(right)
            if overlap:
                kind = "equi-join" if isinstance(plan, EquiJoin) else "cross product"
                raise EvaluationError(f"{kind} operands share columns: {sorted(overlap)}")
            if isinstance(plan, EquiJoin):
                for left_column, right_column in plan.pairs:
                    if left_column not in left or right_column not in right:
                        raise EvaluationError(
                            f"equi-join pair ({left_column!r}, {right_column!r}) is not split across the operands"
                        )
            return left + right
        if isinstance(plan, (UnionAll, Difference)):
            left = self.columns(plan.left)
            right = self.columns(plan.right)
            if set(left) != set(right):
                raise EvaluationError(
                    f"set operation operands have different columns: {right} vs {left}"
                )
            return left
        if isinstance(plan, (SemiJoin, AntiJoin)):
            source = self.columns(plan.source)
            filter_columns = self.columns(plan.filter)
            kind = "semi-join" if isinstance(plan, SemiJoin) else "anti-join"
            for source_column, filter_column in plan.pairs:
                if source_column not in source:
                    raise EvaluationError(f"{kind} pairs unknown source column {source_column!r}")
                if filter_column not in filter_columns:
                    raise EvaluationError(f"{kind} pairs unknown filter column {filter_column!r}")
            return source
        raise EvaluationError(f"unknown plan node: {plan!r}")

    # Materialization ----------------------------------------------------------

    def table(self, plan: PlanNode) -> Table:
        """Materialize *plan* (through the memo for shared subplans)."""
        cached = self._memo.get(plan)
        if cached is None:
            cached = Table.trusted(self.columns(plan), frozenset(self._iterate(plan)))
            if plan in self._shared:
                self._memo[plan] = cached
        return cached

    def rows(self, plan: PlanNode) -> Iterator[tuple]:
        """Stream *plan*'s rows; shared subplans are served from the memo."""
        if plan in self._shared:
            yield from self.table(plan).rows
        else:
            yield from self._iterate(plan)

    # Row iteration ------------------------------------------------------------

    def _iterate(self, plan: PlanNode) -> Iterator[tuple]:
        if isinstance(plan, ScanRelation):
            relation = self.database.relation(plan.relation)
            for row in relation:
                yield tuple(row)
            return
        if isinstance(plan, IndexScan):
            yield from self._iterate_index_scan(plan)
            return
        if isinstance(plan, ActiveDomain):
            for value in self.database.active_domain():
                yield (value,)
            return
        if isinstance(plan, LiteralTable):
            width = len(plan.columns)
            for row in plan.rows:
                if len(row) != width:
                    raise EvaluationError(f"row {row!r} does not match columns {plan.columns!r}")
                yield row
            return
        if isinstance(plan, Selection):
            yield from self._iterate_selection(plan)
            return
        if isinstance(plan, Projection):
            source_columns = self.columns(plan.source)
            indexes = [source_columns.index(column) for column in plan.columns]
            for row in self.rows(plan.source):
                yield tuple(row[i] for i in indexes)
            return
        if isinstance(plan, RenameColumns):
            yield from self.rows(plan.source)
            return
        if isinstance(plan, NaturalJoin):
            yield from self._iterate_natural_join(plan)
            return
        if isinstance(plan, EquiJoin):
            yield from self._iterate_equi_join(plan)
            return
        if isinstance(plan, CrossProduct):
            right_rows = list(self.rows(plan.right))
            for left_row in self.rows(plan.left):
                for right_row in right_rows:
                    yield left_row + right_row
            return
        if isinstance(plan, UnionAll):
            columns = self.columns(plan)
            yield from self.rows(plan.left)
            yield from self._aligned_rows(plan.right, columns)
            return
        if isinstance(plan, Difference):
            columns = self.columns(plan)
            excluded = set(self._aligned_rows(plan.right, columns))
            for row in self.rows(plan.left):
                if row not in excluded:
                    yield row
            return
        if isinstance(plan, SemiJoin):
            yield from self._iterate_semi_join(plan)
            return
        if isinstance(plan, AntiJoin):
            yield from self._iterate_anti_join(plan)
            return
        raise EvaluationError(f"unknown plan node: {plan!r}")

    def _iterate_index_scan(self, plan: IndexScan) -> Iterator[tuple]:
        positions = tuple(plan.columns.index(column) for column, __ in plan.bindings)
        key = tuple(value for __, value in plan.bindings)
        if self.use_indexes:
            rows = indexes_for(self.database).lookup(plan.relation, positions, key)
            if rows is not None:
                yield from rows
                return
        # No index available (lazy relation) or indexing disabled: filter scan.
        for row in self.database.relation(plan.relation):
            row = tuple(row)
            if all(row[position] == value for position, value in zip(positions, key)):
                yield row

    def _iterate_selection(self, plan: Selection) -> Iterator[tuple]:
        columns = self.columns(plan.source)
        if plan.condition is not None:
            for row in self.rows(plan.source):
                if plan.condition(dict(zip(columns, row))):
                    yield row
            return
        bindings = [(columns.index(column), value) for column, value in plan.bindings]
        groups = [[columns.index(column) for column in group] for group in plan.equalities]
        for row in self.rows(plan.source):
            if all(row[index] == value for index, value in bindings) and all(
                len({row[index] for index in group}) == 1 for group in groups
            ):
                yield row

    def _iterate_natural_join(self, plan: NaturalJoin) -> Iterator[tuple]:
        left_columns = self.columns(plan.left)
        right_columns = self.columns(plan.right)
        shared = tuple(column for column in left_columns if column in right_columns)
        right_only = tuple(column for column in right_columns if column not in shared)

        if not shared:
            right_rows = list(self.rows(plan.right))
            for left_row in self.rows(plan.left):
                for right_row in right_rows:
                    yield left_row + right_row
            return

        left_key = [left_columns.index(column) for column in shared]
        right_key = tuple(right_columns.index(column) for column in shared)
        right_rest = [right_columns.index(column) for column in right_only]

        buckets = self._join_buckets(plan.right, right_key)
        for left_row in self.rows(plan.left):
            key = tuple(left_row[i] for i in left_key)
            for right_row in buckets.get(key, _NO_ROWS):
                yield left_row + tuple(right_row[i] for i in right_rest)

    def _join_buckets(self, build: PlanNode, key_positions: tuple[int, ...]):
        """Hash table for a join build side, reusing a stored index when possible."""
        if self.use_indexes and isinstance(build, ScanRelation):
            index = indexes_for(self.database).prefix(build.relation, key_positions)
            if index is not None:
                return index
        if self.use_indexes and probed_within(build, key_positions, self.database):
            among = {key for (key,) in self._filter_keys(build)}
            return indexes_for(self.database).computed(build.source.relation, key_positions, among=among)
        buckets: dict[tuple, list[tuple]] = {}
        for row in self.rows(build):
            buckets.setdefault(tuple(row[i] for i in key_positions), []).append(row)
        return buckets

    def _filter_keys(self, plan: SemiJoin | AntiJoin) -> set[tuple]:
        """The distinct key tuples of a semi/anti-join's filter side."""
        filter_columns = self.columns(plan.filter)
        positions = [filter_columns.index(column) for __, column in plan.pairs]
        return {tuple(row[i] for i in positions) for row in self.rows(plan.filter)}

    def _iterate_semi_join(self, plan: SemiJoin) -> Iterator[tuple]:
        source_columns = self.columns(plan.source)
        positions = tuple(source_columns.index(column) for column, __ in plan.pairs)
        keys = self._filter_keys(plan)
        if not keys:
            return
        if self.use_indexes and plan.pairs and isinstance(plan.source, ScanRelation):
            # The sideways payoff: probe the stored prefix index once per key
            # instead of scanning the whole relation.  Buckets are disjoint
            # per key, so no row is produced twice.
            index = indexes_for(self.database).prefix(plan.source.relation, positions)
            if index is not None:
                for key in keys:
                    yield from index.get(key, _NO_ROWS)
                return
        for row in self.rows(plan.source):
            if tuple(row[i] for i in positions) in keys:
                yield row

    def _iterate_anti_join(self, plan: AntiJoin) -> Iterator[tuple]:
        source_columns = self.columns(plan.source)
        positions = tuple(source_columns.index(column) for column, __ in plan.pairs)
        keys = self._filter_keys(plan)
        for row in self.rows(plan.source):
            if tuple(row[i] for i in positions) not in keys:
                yield row

    def _iterate_equi_join(self, plan: EquiJoin) -> Iterator[tuple]:
        left_columns = self.columns(plan.left)
        right_columns = self.columns(plan.right)
        left_key = [left_columns.index(left) for left, __ in plan.pairs]
        right_key = tuple(right_columns.index(right) for __, right in plan.pairs)

        if not plan.pairs:
            right_rows = list(self.rows(plan.right))
            for left_row in self.rows(plan.left):
                for right_row in right_rows:
                    yield left_row + right_row
            return

        buckets = self._join_buckets(plan.right, right_key)
        for left_row in self.rows(plan.left):
            key = tuple(left_row[i] for i in left_key)
            for right_row in buckets.get(key, _NO_ROWS):
                yield left_row + right_row

    def _aligned_rows(self, plan: PlanNode, columns: tuple[str, ...]) -> Iterator[tuple]:
        """Stream *plan*'s rows reordered to *columns* (same column set)."""
        own = self.columns(plan)
        if own == columns:
            yield from self.rows(plan)
            return
        indexes = [own.index(column) for column in columns]
        for row in self.rows(plan):
            yield tuple(row[i] for i in indexes)


_NO_ROWS: tuple[tuple, ...] = ()


def probed_within(build: PlanNode, key_positions: tuple[int, ...], database: PhysicalDatabase) -> bool:
    """Whether a join build side is ``PE`` semi-joined on its other column.

    Then the join probes ``PE`` per key of its own, and keeps only the
    partners in the semi-join's keys (the values a negation's conjunct
    binds): neither ``PE`` of every filter key nor every partner of a join
    key is produced.
    """
    return (
        isinstance(build, SemiJoin)
        and isinstance(build.source, ScanRelation)
        and len(build.pairs) == 1
        and len(key_positions) == 1
        and build.source.columns.index(build.pairs[0][0]) != key_positions[0]
        and isinstance(database.relation(build.source.relation), PossiblyEqualRelation)
    )


def plan_size(plan: PlanNode) -> int:
    """Number of operator nodes in a plan (used by tests and reports)."""
    return 1 + sum(plan_size(child) for child in plan.children())


def node_label(plan: PlanNode) -> str:
    """One-line operator label for a plan node (plan texts, EXPLAIN trees)."""
    if isinstance(plan, ScanRelation):
        return f"Scan {plan.relation}({', '.join(plan.columns)})"
    if isinstance(plan, IndexScan):
        probe = " & ".join(f"{column}={value!r}" for column, value in plan.bindings)
        return f"IndexScan {plan.relation}({', '.join(plan.columns)}; {probe})"
    if isinstance(plan, ActiveDomain):
        return f"ActiveDomain({plan.column})"
    if isinstance(plan, LiteralTable):
        return f"Literal({', '.join(plan.columns)}; {len(plan.rows)} rows)"
    if isinstance(plan, Selection):
        return f"Select[{plan.description}]"
    if isinstance(plan, Projection):
        return f"Project({', '.join(plan.columns)})"
    if isinstance(plan, RenameColumns):
        renames = ", ".join(f"{old}->{new}" for old, new in plan.renaming)
        return f"Rename({renames})"
    if isinstance(plan, EquiJoin):
        pairs = ", ".join(f"{left}={right}" for left, right in plan.pairs)
        return f"EquiJoin({pairs})"
    if isinstance(plan, (SemiJoin, AntiJoin)):
        pairs = ", ".join(f"{source}={filtered}" for source, filtered in plan.pairs)
        return f"{type(plan).__name__}({pairs})"
    return type(plan).__name__


def plan_to_text(plan: PlanNode, indent: int = 0) -> str:
    """Indented textual rendering of a plan tree (debugging aid)."""
    parts = ["  " * indent + node_label(plan)]
    for child in plan.children():
        parts.append(plan_to_text(child, indent + 1))
    return "\n".join(parts)
