"""Relational-algebra plan nodes.

The approximation algorithm of Section 5 is meant to run "on the top of a
standard database management system": the rewritten query ``Q-hat`` is an
ordinary relational query over the stored database ``Ph2(LB)``.  To make
that concrete we provide a small relational-algebra engine.  This module
defines the operator tree; :mod:`repro.physical.algebra` executes it and
:mod:`repro.physical.compiler` translates first-order queries into it under
active-domain semantics.

Plans are immutable trees.  Every node produces a :class:`Table` — a bag of
rows with named columns — when executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.errors import EvaluationError, UnboundParameterError
from repro.logic.terms import Parameter

__all__ = [
    "Table",
    "PlanNode",
    "ScanRelation",
    "IndexScan",
    "ActiveDomain",
    "LiteralTable",
    "Selection",
    "Projection",
    "RenameColumns",
    "NaturalJoin",
    "EquiJoin",
    "SemiJoin",
    "AntiJoin",
    "CrossProduct",
    "UnionAll",
    "Difference",
    "plan_parameters",
    "substitute_plan_parameters",
]


@dataclass(frozen=True)
class Table:
    """An executed intermediate result: named columns plus a set of rows.

    Rows are tuples aligned with ``columns``.  Duplicate rows are not kept
    (set semantics), which matches the paper's relations.
    """

    columns: tuple[str, ...]
    rows: frozenset[tuple]

    def __post_init__(self) -> None:
        # C-speed width check (map/len run without interpreter frames); the
        # executor builds a Table per materialization point, so this runs on
        # the hot path and must not cost a Python-level loop per row.
        width = len(self.columns)
        if not set(map(len, self.rows)) <= {width}:
            for row in self.rows:
                if len(row) != width:
                    raise EvaluationError(
                        f"row {row!r} does not match columns {self.columns!r}"
                    )

    @classmethod
    def trusted(cls, columns: tuple[str, ...], rows: frozenset) -> "Table":
        """Construct without the per-row width check.

        For executor internals only: every operator produces rows whose
        width matches its resolved columns by construction, and the check
        is a full extra pass over the result on the materialization hot
        path.  Anything accepting externally supplied rows must use the
        normal constructor.
        """
        table = object.__new__(cls)
        object.__setattr__(table, "columns", columns)
        object.__setattr__(table, "rows", rows)
        return table

    def __len__(self) -> int:
        return len(self.rows)

    def project(self, columns: Iterable[str]) -> "Table":
        wanted = tuple(columns)
        indexes = [self.columns.index(column) for column in wanted]
        return Table(wanted, frozenset(tuple(row[i] for i in indexes) for row in self.rows))

    def as_dicts(self) -> list[dict[str, object]]:
        """Rows as dictionaries, ordered deterministically (for display/tests)."""
        return [dict(zip(self.columns, row)) for row in sorted(self.rows, key=repr)]


class PlanNode:
    """Base class of all plan operators."""

    __slots__ = ()

    def children(self) -> tuple["PlanNode", ...]:
        return ()


@dataclass(frozen=True)
class ScanRelation(PlanNode):
    """Scan a stored relation, producing the given column names."""

    relation: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class IndexScan(PlanNode):
    """Scan a stored relation restricted to rows matching constant bindings.

    Semantically identical to ``Selection(ScanRelation(relation, columns),
    bindings=bindings)`` but executable through a per-database hash index
    (:mod:`repro.physical.indexes`) instead of a full scan.  The optimizer
    produces these nodes; nothing forces an index to exist — execution falls
    back to a filtered scan when indexing is disabled or unavailable.
    """

    relation: str
    columns: tuple[str, ...]
    bindings: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class ActiveDomain(PlanNode):
    """Produce the active domain of the database as a single-column table.

    Used by the compiler to give range-unrestricted variables something to
    range over (active-domain semantics).
    """

    column: str


@dataclass(frozen=True)
class LiteralTable(PlanNode):
    """A constant table, e.g. the single empty row (the 0-ary TRUE relation)."""

    columns: tuple[str, ...]
    rows: frozenset[tuple]


@dataclass(frozen=True)
class Selection(PlanNode):
    """Keep the rows satisfying a predicate over the named columns.

    The predicate takes one of two forms:

    * an opaque ``condition`` callable over a ``{column: value}`` dict —
      always honoured when present, but invisible to the optimizer;
    * a *structured* condition: ``bindings`` (each named column must equal a
      constant) and ``equalities`` (each group of columns must share one
      value), combined conjunctively.  The compiler only emits structured
      selections, which is what lets the optimizer push them around, compare
      subplans for equality, and convert them into joins or index lookups.

    When ``condition`` is ``None`` the structured fields are authoritative;
    an empty structured condition keeps every row.
    """

    source: PlanNode
    condition: Callable[[dict[str, object]], bool] | None = None
    description: str = "<condition>"
    bindings: tuple[tuple[str, object], ...] = ()
    equalities: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.condition is not None and (self.bindings or self.equalities):
            raise EvaluationError(
                "a Selection takes either an opaque condition or structured "
                "bindings/equalities, not both (the opaque form would silently "
                "win at execution)"
            )

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def referenced_columns(self) -> tuple[str, ...] | None:
        """Columns the condition reads, or ``None`` when unknowable (opaque)."""
        if self.condition is not None:
            return None
        seen: list[str] = []
        for column, __ in self.bindings:
            if column not in seen:
                seen.append(column)
        for group in self.equalities:
            for column in group:
                if column not in seen:
                    seen.append(column)
        return tuple(seen)


@dataclass(frozen=True)
class Projection(PlanNode):
    """Project onto the named columns (removing duplicates)."""

    source: PlanNode
    columns: tuple[str, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)


@dataclass(frozen=True)
class RenameColumns(PlanNode):
    """Rename columns according to a mapping (missing columns keep their name)."""

    source: PlanNode
    renaming: tuple[tuple[str, str], ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)


@dataclass(frozen=True)
class NaturalJoin(PlanNode):
    """Natural join on shared column names."""

    left: PlanNode
    right: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class EquiJoin(PlanNode):
    """Join on explicit column pairs; operand column sets must be disjoint.

    ``pairs`` holds ``(left_column, right_column)`` equalities.  The output
    keeps *all* columns of both operands (unlike :class:`NaturalJoin`, which
    merges shared names), so ``EquiJoin(l, r, pairs)`` is row-for-row equal
    to ``Selection(CrossProduct(l, r), equalities=pairs)`` — the optimizer
    rewrite that produces it — but executes as a hash join instead of a
    filtered product.
    """

    left: PlanNode
    right: PlanNode
    pairs: tuple[tuple[str, str], ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class SemiJoin(PlanNode):
    """Keep the source rows whose key appears in the filter's key projection.

    ``pairs`` holds ``(source_column, filter_column)`` equalities; the output
    has exactly the source's columns.  The optimizer's sideways-information-
    passing pass inserts these to pre-filter a large join input with the key
    set of a selective sibling — the filter subplan is typically structurally
    equal to that sibling, so the executor's memo computes it once.  When the
    source is a bare relation scan the executor probes the stored hash index
    per key instead of scanning, turning a full-relation pass into a handful
    of lookups.
    """

    source: PlanNode
    filter: PlanNode
    pairs: tuple[tuple[str, str], ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source, self.filter)


@dataclass(frozen=True)
class AntiJoin(PlanNode):
    """Keep the source rows whose key does *not* appear in the filter.

    The complement of :class:`SemiJoin`; with every source column paired it
    is exactly a :class:`Difference` whose right side may have its columns in
    a different order.  The optimizer produces it when semi-join-reducing the
    right side of a set difference (only filter rows whose key occurs on the
    left can ever exclude anything).
    """

    source: PlanNode
    filter: PlanNode
    pairs: tuple[tuple[str, str], ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source, self.filter)


@dataclass(frozen=True)
class CrossProduct(PlanNode):
    """Cartesian product; the operand column sets must be disjoint."""

    left: PlanNode
    right: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class UnionAll(PlanNode):
    """Set union of two tables over the same columns (order-normalized)."""

    left: PlanNode
    right: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Difference(PlanNode):
    """Set difference (left minus right) over the same columns."""

    left: PlanNode
    right: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


def _install_cached_hashes() -> None:
    """Replace each node class's generated ``__hash__`` with a caching wrapper.

    Plan nodes are immutable trees used as dict keys everywhere — the
    executor's memo and shared-subplan analysis, the optimizer's rewrites.  The dataclass-generated ``__hash__``
    recursively re-hashes the whole subtree on *every* lookup, which makes
    per-node bookkeeping O(tree size); caching the value on first use (the
    ``object.__setattr__`` idiom used for ``PhysicalDatabase`` caches) makes
    every subsequent lookup O(1).  Safe because nodes are frozen: the hash
    can never go stale.  Equality is untouched.
    """
    for node_class in (
        ScanRelation,
        IndexScan,
        ActiveDomain,
        LiteralTable,
        Selection,
        Projection,
        RenameColumns,
        NaturalJoin,
        EquiJoin,
        SemiJoin,
        AntiJoin,
        CrossProduct,
        UnionAll,
        Difference,
    ):
        generated = node_class.__hash__

        def cached_hash(self, _generated=generated):
            value = self.__dict__.get("_cached_hash")
            if value is None:
                value = _generated(self)
                object.__setattr__(self, "_cached_hash", value)
            return value

        node_class.__hash__ = cached_hash


_install_cached_hashes()


# Parameterized template plans --------------------------------------------------


def plan_parameters(plan: PlanNode) -> tuple[str, ...]:
    """Parameter names a plan still carries as placeholder values (sorted).

    A compiled template plan holds :class:`~repro.logic.terms.Parameter`
    objects wherever the bound constant's value will eventually sit:
    selection and index-scan bindings, and literal-table rows.
    """
    names: set[str] = set()
    pending = [plan]
    while pending:
        node = pending.pop()
        if isinstance(node, (Selection, IndexScan)):
            names.update(value.name for __, value in node.bindings if isinstance(value, Parameter))
        if isinstance(node, LiteralTable):
            names.update(
                value.name for row in node.rows for value in row if isinstance(value, Parameter)
            )
        pending.extend(node.children())
    return tuple(sorted(names))


def substitute_plan_parameters(plan: PlanNode, values: Mapping[str, object]) -> PlanNode:
    """Rebind a compiled template plan to concrete values — how a cached shape plan runs.

    Structurally identical to re-compiling the bound query, but a pure tree
    rebuild: no parse, no rewrite, no optimization.  *values* maps parameter
    names to the already-resolved domain values (callers resolve through
    :meth:`~repro.physical.database.PhysicalDatabase.constant_value` so a
    binding to an unknown constant fails exactly like the ad-hoc path).
    Raises :class:`UnboundParameterError` when the plan mentions a parameter
    *values* does not cover; extra names are ignored (a template's plan may
    not mention every template parameter after optimization).
    """

    def value_of(value: object) -> object:
        if isinstance(value, Parameter):
            try:
                return values[value.name]
            except KeyError:
                raise UnboundParameterError(
                    f"plan mentions unbound parameter ${value.name}"
                ) from None
        return value

    def rebuild(node: PlanNode) -> PlanNode:
        if isinstance(node, Selection):
            return Selection(
                rebuild(node.source),
                node.condition,
                node.description,
                tuple((column, value_of(value)) for column, value in node.bindings),
                node.equalities,
            )
        if isinstance(node, IndexScan):
            return IndexScan(
                node.relation,
                node.columns,
                tuple((column, value_of(value)) for column, value in node.bindings),
            )
        if isinstance(node, LiteralTable):
            return LiteralTable(
                node.columns,
                frozenset(tuple(value_of(value) for value in row) for row in node.rows),
            )
        if isinstance(node, Projection):
            return Projection(rebuild(node.source), node.columns)
        if isinstance(node, RenameColumns):
            return RenameColumns(rebuild(node.source), node.renaming)
        if isinstance(node, (NaturalJoin, CrossProduct, UnionAll, Difference)):
            return type(node)(rebuild(node.left), rebuild(node.right))
        if isinstance(node, EquiJoin):
            return EquiJoin(rebuild(node.left), rebuild(node.right), node.pairs)
        if isinstance(node, (SemiJoin, AntiJoin)):
            return type(node)(rebuild(node.source), rebuild(node.filter), node.pairs)
        # Leaves without values (ScanRelation, ActiveDomain) pass through.
        return node

    return rebuild(plan)
