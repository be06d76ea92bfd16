"""Cost-aware rewriting of relational-algebra plans before execution.

The compiler (:mod:`repro.physical.compiler`) translates formulas
syntax-directedly, which produces correct but naive plans: selections sit
above products, join order follows formula order, padding introduces
active-domain products, and equal subformulas compile to duplicate subtrees.
This module rewrites a compiled plan into an equivalent cheaper one:

* **constant folding** — empty ``LiteralTable``/``Bottom`` branches
  annihilate joins and differences, identity projections/renames disappear,
  selections over literal tables evaluate at plan time;
* **selection pushdown** — structured selections (constant bindings and
  column-equality groups) move below projections, renames, unions,
  differences and into the matching side(s) of products and equi-joins
  (the compiler builds them over scans, literals and active-domain
  products, never over a natural join);
* **join conversions** — a selection equating columns across a
  ``CrossProduct`` becomes an :class:`~repro.physical.plan.EquiJoin` (hash
  join instead of filtered product); constant bindings over a
  ``ScanRelation`` become an :class:`~repro.physical.plan.IndexScan`;
* **greedy join reordering** — maximal ``NaturalJoin`` chains are flattened
  (natural join is associative and commutative on sets) and re-ordered
  smallest-estimate-first using per-database :class:`~repro.physical.statistics.Statistics`,
  preferring joins that share columns over products;
* **projection pushdown** — columns a parent never consumes are dropped
  before joins, shrinking intermediate widths and row counts;
* **negations over bound columns** — a negation the compiler wrote over
  the active domain (``alpha_P``, ``~(t1 = t2)``, ``~phi``) anti-joins the
  conjunct that binds its columns instead, and its refuted side is
  semi-joined by that conjunct's keys;
* **common-subplan deduplication** — structurally equal subtrees are
  interned to a single object; the executor's memo table then computes each
  one once per execution;
* **sideways information passing (semi-join reduction)** — when one join
  input is estimated far smaller than another, the large input is reduced by
  a :class:`~repro.physical.plan.SemiJoin` against the small input's key set
  *before* the join, pushed down to the underlying scans (where the stored
  hash indexes turn a full pass into per-key probes).  A build side the
  executor already probes per key — a stored relation through any renames,
  or ``PE`` — is never reduced; differences whose right side is expensive
  get the symmetric :class:`~repro.physical.plan.AntiJoin` treatment, and
  the candidate columns of a nested negation over the active domain become
  the filter's keys.

Every rewrite preserves the result *exactly* — same columns in the same
order, same row set — so a naive plan (:func:`~repro.physical.compiler.compile_query`
without this module) or ``optimize(..., sip=False)`` is a valid reference
for the optimized one.
"""

from __future__ import annotations

from repro.physical.algebra import _ExecutionContext
from repro.physical.database import PhysicalDatabase
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
    UnionAll,
)
from repro.logic.terms import Parameter
from repro.logic.vocabulary import PE_PREDICATE
from repro.physical.statistics import Statistics, statistics_for

__all__ = ["optimize"]

_SELECTIVITY_OPAQUE = 1.0 / 3.0

#: Sideways information passing only fires when the reduced side is at least
#: this many times the filter side's estimate...
_SIP_RATIO = 4.0
#: ...and estimated at least this many rows (tiny inputs are never worth it).
_SIP_MIN_ROWS = 64.0


def optimize(
    plan: PlanNode,
    database: PhysicalDatabase,
    statistics: Statistics | None = None,
    sip: bool = True,
) -> PlanNode:
    """Rewrite *plan* into an equivalent plan that executes faster.

    The output has exactly the same columns (names *and* order) and row set
    as the input on *database* — callers may substitute it blindly.
    ``sip=False`` skips the semi-join reducer (a reference for tests).
    """
    rewriter = _Rewriter(database, statistics or statistics_for(database))
    plan = rewriter.fold(plan)
    plan = rewriter.push_selections(plan)
    plan = rewriter.fold(plan)
    plan = rewriter.reorder_joins(plan)
    plan = rewriter.prune_columns(plan, None)
    plan = rewriter.fold(plan)
    plan = rewriter.bind_negations(plan)
    if sip:
        plan = rewriter.pass_sideways(plan)
    return rewriter.intern(plan)


class _Rewriter:
    """One optimization run: passes share column resolution and statistics."""

    def __init__(self, database: PhysicalDatabase, statistics: Statistics) -> None:
        self.database = database
        self.statistics = statistics
        self._resolver = _ExecutionContext(database, use_indexes=False)

    def cols(self, plan: PlanNode) -> tuple[str, ...]:
        return self._resolver.columns(plan)

    # Constant folding ---------------------------------------------------------

    def fold(self, plan: PlanNode) -> PlanNode:
        if isinstance(plan, Selection):
            source = self.fold(plan.source)
            if plan.condition is None:
                if not plan.bindings and not plan.equalities:
                    return source
                if isinstance(source, LiteralTable):
                    filtered = _filter_literal(source, plan.bindings, plan.equalities)
                    if filtered is not None:
                        return filtered
            if isinstance(source, LiteralTable) and not source.rows:
                return source
            return _rebuild(plan, Selection, source=source)
        if isinstance(plan, Projection):
            source = self.fold(plan.source)
            if isinstance(source, Projection):
                source = source.source  # collapse Project(Project(x))
            if plan.columns == self.cols(source):
                return source
            if isinstance(source, LiteralTable):
                indexes = [source.columns.index(column) for column in plan.columns]
                rows = frozenset(tuple(row[i] for i in indexes) for row in source.rows)
                return LiteralTable(plan.columns, rows)
            return _rebuild(plan, Projection, source=source)
        if isinstance(plan, RenameColumns):
            source = self.fold(plan.source)
            mapping = {old: new for old, new in plan.renaming if old != new}
            source_columns = self.cols(source)
            if not any(column in mapping for column in source_columns):
                return source
            renaming = tuple((old, new) for old, new in plan.renaming if old in source_columns and old != new)
            if isinstance(source, LiteralTable):
                columns = tuple(mapping.get(column, column) for column in source.columns)
                return LiteralTable(columns, source.rows)
            return RenameColumns(source, renaming)
        if isinstance(plan, (NaturalJoin, EquiJoin, CrossProduct)):
            left = self.fold(plan.left)
            right = self.fold(plan.right)
            columns = self.cols(_rebuild(plan, type(plan), left=left, right=right))
            for side in (left, right):
                if isinstance(side, LiteralTable) and not side.rows:
                    return LiteralTable(columns, frozenset())
            if _is_true_literal(left) and not isinstance(plan, EquiJoin):
                return right
            if _is_true_literal(right) and not isinstance(plan, EquiJoin):
                return left
            return _rebuild(plan, type(plan), left=left, right=right)
        if isinstance(plan, UnionAll):
            left = self.fold(plan.left)
            right = self.fold(plan.right)
            if left == right:
                return left
            if isinstance(right, LiteralTable) and not right.rows:
                return left
            if isinstance(left, LiteralTable) and not left.rows:
                aligned_columns = self.cols(left)
                if self.cols(right) == aligned_columns:
                    return right
                return Projection(right, aligned_columns)
            return UnionAll(left, right)
        if isinstance(plan, Difference):
            left = self.fold(plan.left)
            right = self.fold(plan.right)
            if left == right or (isinstance(left, LiteralTable) and not left.rows):
                return LiteralTable(self.cols(left), frozenset())
            if isinstance(right, LiteralTable) and not right.rows:
                return left
            return Difference(left, right)
        return plan

    # Selection pushdown -------------------------------------------------------

    def push_selections(self, plan: PlanNode) -> PlanNode:
        children = plan.children()
        if children:
            rebuilt = {name: self.push_selections(child) for name, child in _named_children(plan)}
            plan = _rebuild(plan, type(plan), **rebuilt)
        if isinstance(plan, Selection) and plan.condition is None:
            return self._push_one(plan)
        return plan

    def _push_one(self, selection: Selection) -> PlanNode:
        source = selection.source
        bindings = selection.bindings
        equalities = selection.equalities
        if not bindings and not equalities:
            return source
        referenced = selection.referenced_columns() or ()
        source_columns = set(self.cols(source))
        if any(column not in source_columns for column in referenced):
            # Invalid selection (references columns its input lacks): leave it
            # untouched so execution raises the same error the naive plan does.
            return selection

        if isinstance(source, Selection) and source.condition is None:
            merged = Selection(
                source.source,
                None,
                _merge_descriptions(source.description, selection.description),
                source.bindings + bindings,
                source.equalities + equalities,
            )
            return self._push_one(merged)

        if isinstance(source, Projection):
            pushed = self._push_one(
                Selection(source.source, None, selection.description, bindings, equalities)
            )
            return Projection(pushed, source.columns)

        if isinstance(source, RenameColumns):
            inverse = {new: old for old, new in source.renaming}
            renamed_bindings = tuple((inverse.get(column, column), value) for column, value in bindings)
            renamed_equalities = tuple(
                tuple(inverse.get(column, column) for column in group) for group in equalities
            )
            pushed = self._push_one(
                Selection(source.source, None, selection.description, renamed_bindings, renamed_equalities)
            )
            return RenameColumns(pushed, source.renaming)

        if isinstance(source, (UnionAll, Difference)):
            left = self._push_one(
                Selection(source.left, None, selection.description, bindings, equalities)
            )
            right = self._push_one(
                Selection(source.right, None, selection.description, bindings, equalities)
            )
            return type(source)(left, right)

        if isinstance(source, (CrossProduct, EquiJoin)):
            return self._push_into_product(source, bindings, equalities, selection.description)

        if isinstance(source, ScanRelation) and bindings:
            deduped = _dedupe_bindings(bindings)
            if deduped is _UNDECIDED:
                return selection
            if deduped is None:
                return LiteralTable(source.columns, frozenset())
            scan = IndexScan(source.relation, source.columns, deduped)
            if equalities:
                return Selection(scan, None, selection.description, (), equalities)
            return scan

        if isinstance(source, IndexScan) and bindings:
            deduped = _dedupe_bindings(source.bindings + bindings)
            if deduped is _UNDECIDED:
                return selection
            if deduped is None:
                return LiteralTable(source.columns, frozenset())
            scan = IndexScan(source.relation, source.columns, deduped)
            if equalities:
                return Selection(scan, None, selection.description, (), equalities)
            return scan

        if isinstance(source, ActiveDomain) and bindings:
            deduped = _dedupe_bindings(bindings)
            if deduped is _UNDECIDED or (
                deduped is not None and isinstance(deduped[0][1], Parameter)
            ):
                # Whether the bound value lies in the active domain is only
                # knowable after substitution: keep the runtime filter.
                return selection
            if deduped is None or deduped[0][1] not in self.database.active_domain():
                return LiteralTable((source.column,), frozenset())
            return LiteralTable((source.column,), frozenset({(deduped[0][1],)}))

        if isinstance(source, LiteralTable):
            filtered = _filter_literal(source, bindings, equalities)
            return selection if filtered is None else filtered

        return Selection(source, None, selection.description, bindings, equalities)

    def _push_into_product(self, product: CrossProduct | EquiJoin, bindings, equalities, description) -> PlanNode:
        left_columns = set(self.cols(product.left))
        right_columns = set(self.cols(product.right))
        left_bindings = tuple(item for item in bindings if item[0] in left_columns)
        right_bindings = tuple(item for item in bindings if item[0] in right_columns)
        pairs = list(product.pairs) if isinstance(product, EquiJoin) else []
        left_groups, right_groups, residual_groups = [], [], []
        for group in equalities:
            left_part = tuple(column for column in group if column in left_columns)
            right_part = tuple(column for column in group if column in right_columns)
            if left_part and right_part:
                # Split a cross-side group: enforce equality within each side,
                # then link the sides through one hash-join pair.
                if len(left_part) > 1:
                    left_groups.append(left_part)
                if len(right_part) > 1:
                    right_groups.append(right_part)
                pairs.append((left_part[0], right_part[0]))
            elif left_part:
                left_groups.append(group)
            elif right_part:
                right_groups.append(group)
            else:
                residual_groups.append(group)
        left = self._wrap(product.left, left_bindings, tuple(left_groups), description)
        right = self._wrap(product.right, right_bindings, tuple(right_groups), description)
        if pairs:
            rebuilt: PlanNode = EquiJoin(left, right, tuple(pairs))
        else:
            rebuilt = type(product)(left, right) if isinstance(product, CrossProduct) else EquiJoin(left, right, ())
        if residual_groups:
            rebuilt = Selection(rebuilt, None, description, (), tuple(residual_groups))
        return rebuilt

    def _wrap(self, plan: PlanNode, bindings, equalities, description) -> PlanNode:
        if not bindings and not equalities:
            return plan
        return self._push_one(Selection(plan, None, description, bindings, equalities))

    # Join reordering ----------------------------------------------------------

    def reorder_joins(self, plan: PlanNode) -> PlanNode:
        if isinstance(plan, NaturalJoin):
            leaves: list[PlanNode] = []
            _flatten_joins(plan, leaves)
            leaves = [self.reorder_joins(leaf) for leaf in leaves]
            original_columns = self.cols(plan)
            if len(leaves) < 3:
                return _chain(leaves)
            rebuilt = _chain(self._greedy_order(leaves))
            if self.cols(rebuilt) == original_columns:
                return rebuilt
            return Projection(rebuilt, original_columns)
        children = plan.children()
        if not children:
            return plan
        rebuilt_children = {name: self.reorder_joins(child) for name, child in _named_children(plan)}
        return _rebuild(plan, type(plan), **rebuilt_children)

    def _greedy_order(self, leaves: list[PlanNode]) -> list[PlanNode]:
        estimates = [self.estimate(leaf) for leaf in leaves]
        remaining = list(range(len(leaves)))
        start = min(remaining, key=lambda i: (estimates[i].rows, i))
        order = [start]
        remaining.remove(start)
        current = estimates[start]
        while remaining:
            connected = [
                i for i in remaining if set(estimates[i].distinct) & set(current.distinct)
            ]
            candidates = connected or remaining
            best = min(
                candidates,
                key=lambda i: (_join_estimate(current, estimates[i]).rows, i),
            )
            order.append(best)
            remaining.remove(best)
            current = _join_estimate(current, estimates[best])
        return [leaves[i] for i in order]

    # Cardinality estimation ---------------------------------------------------

    def estimate(self, plan: PlanNode) -> "_Estimate":
        """Estimated output size under the statistics' cardinality model."""
        columns = self.cols(plan)
        if isinstance(plan, ScanRelation):
            summary = self.statistics.relation(plan.relation)
            distinct = {column: float(summary.distinct[i]) for i, column in enumerate(columns)}
            return _Estimate(float(summary.rows), distinct)
        if isinstance(plan, IndexScan):
            summary = self.statistics.relation(plan.relation)
            rows = float(summary.rows)
            distinct = {column: float(summary.distinct[i]) for i, column in enumerate(columns)}
            for column, __ in plan.bindings:
                rows /= max(distinct.get(column, 1.0), 1.0)
                distinct[column] = 1.0
            return _Estimate(rows, distinct).clamped()
        if isinstance(plan, ActiveDomain):
            size = float(self.statistics.active_domain_size)
            return _Estimate(size, {plan.column: size})
        if isinstance(plan, LiteralTable):
            distinct = {
                column: float(len({row[i] for row in plan.rows}))
                for i, column in enumerate(plan.columns)
            }
            return _Estimate(float(len(plan.rows)), distinct)
        if isinstance(plan, Selection):
            inner = self.estimate(plan.source)
            rows = inner.rows
            distinct = dict(inner.distinct)
            if plan.condition is not None:
                rows *= _SELECTIVITY_OPAQUE
            else:
                for column, __ in plan.bindings:
                    rows /= max(distinct.get(column, 1.0), 1.0)
                    distinct[column] = 1.0
                for group in plan.equalities:
                    sizes = [distinct.get(column, 1.0) for column in group]
                    rows /= max(max(sizes), 1.0) ** (len(group) - 1)
            return _Estimate(rows, distinct).clamped()
        if isinstance(plan, Projection):
            inner = self.estimate(plan.source)
            distinct = {column: inner.distinct.get(column, inner.rows) for column in plan.columns}
            limit = 1.0
            for value in distinct.values():
                limit *= max(value, 1.0)
            return _Estimate(min(inner.rows, limit), distinct).clamped()
        if isinstance(plan, RenameColumns):
            inner = self.estimate(plan.source)
            mapping = dict(plan.renaming)
            distinct = {mapping.get(column, column): value for column, value in inner.distinct.items()}
            return _Estimate(inner.rows, distinct)
        if isinstance(plan, NaturalJoin):
            return _join_estimate(self.estimate(plan.left), self.estimate(plan.right))
        if isinstance(plan, EquiJoin):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            rows = left.rows * right.rows
            distinct = dict(left.distinct)
            distinct.update(right.distinct)
            for left_column, right_column in plan.pairs:
                left_d = left.distinct.get(left_column, 1.0)
                right_d = right.distinct.get(right_column, 1.0)
                rows /= max(left_d, right_d, 1.0)
                shared = min(left_d, right_d)
                distinct[left_column] = shared
                distinct[right_column] = shared
            return _Estimate(rows, distinct).clamped()
        if isinstance(plan, CrossProduct):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            distinct = dict(left.distinct)
            distinct.update(right.distinct)
            return _Estimate(left.rows * right.rows, distinct)
        if isinstance(plan, UnionAll):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            distinct = {
                column: left.distinct.get(column, 0.0) + right.distinct.get(column, 0.0)
                for column in set(left.distinct) | set(right.distinct)
            }
            return _Estimate(left.rows + right.rows, distinct)
        if isinstance(plan, Difference):
            return self.estimate(plan.left)
        if isinstance(plan, SemiJoin):
            source = self.estimate(plan.source)
            filtered = self.estimate(plan.filter)
            rows = source.rows
            for source_column, filter_column in plan.pairs:
                source_d = max(source.distinct.get(source_column, 1.0), 1.0)
                filter_d = max(filtered.distinct.get(filter_column, 1.0), 1.0)
                rows *= min(1.0, filter_d / source_d)
            return _Estimate(rows, dict(source.distinct)).clamped()
        if isinstance(plan, AntiJoin):
            return self.estimate(plan.source)
        return _Estimate(1.0, {column: 1.0 for column in columns})

    # Projection pushdown ------------------------------------------------------

    def prune_columns(self, plan: PlanNode, needed: frozenset[str] | None) -> PlanNode:
        """Drop columns no ancestor consumes.

        Returns a plan whose columns are the original ones restricted to
        *needed* (order preserved); ``None`` means every column is needed.
        The root is always called with ``None``, so pruning starts below the
        outermost :class:`Projection` nodes.  Nodes that must internally keep
        extra columns (join keys, both sides of a difference) are restricted
        back to *needed* afterwards, so the output contract always holds.
        """
        return self._restrict(self._prune(plan, needed), needed)

    def _restrict(self, plan: PlanNode, needed: frozenset[str] | None) -> PlanNode:
        if needed is None:
            return plan
        columns = self.cols(plan)
        if frozenset(columns) <= needed:
            return plan
        kept = tuple(column for column in columns if column in needed)
        if isinstance(plan, LiteralTable):
            indexes = [columns.index(column) for column in kept]
            return LiteralTable(kept, frozenset(tuple(row[i] for i in indexes) for row in plan.rows))
        return Projection(plan, kept)

    def _prune(self, plan: PlanNode, needed: frozenset[str] | None) -> PlanNode:
        if isinstance(plan, Projection):
            kept = tuple(
                column for column in plan.columns if needed is None or column in needed
            )
            source = self.prune_columns(plan.source, frozenset(kept))
            return Projection(source, kept)
        if isinstance(plan, Selection):
            referenced = plan.referenced_columns()
            if referenced is None or needed is None:
                child_needed = None
            else:
                child_needed = needed | frozenset(referenced)
            return _rebuild(plan, Selection, source=self.prune_columns(plan.source, child_needed))
        if isinstance(plan, RenameColumns):
            inverse = {new: old for old, new in plan.renaming}
            child_needed = None if needed is None else frozenset(inverse.get(c, c) for c in needed)
            source = self.prune_columns(plan.source, child_needed)
            surviving = set(self.cols(source))
            renaming = tuple((old, new) for old, new in plan.renaming if old in surviving)
            return RenameColumns(source, renaming)
        if isinstance(plan, NaturalJoin):
            left_columns = self.cols(plan.left)
            right_columns = self.cols(plan.right)
            shared = frozenset(left_columns) & frozenset(right_columns)
            left_needed = None if needed is None else (needed & frozenset(left_columns)) | shared
            right_needed = None if needed is None else (needed & frozenset(right_columns)) | shared
            return NaturalJoin(
                self.prune_columns(plan.left, left_needed),
                self.prune_columns(plan.right, right_needed),
            )
        if isinstance(plan, EquiJoin):
            left_columns = frozenset(self.cols(plan.left))
            right_columns = frozenset(self.cols(plan.right))
            pair_columns = frozenset(column for pair in plan.pairs for column in pair)
            left_needed = None if needed is None else ((needed | pair_columns) & left_columns)
            right_needed = None if needed is None else ((needed | pair_columns) & right_columns)
            return EquiJoin(
                self.prune_columns(plan.left, left_needed),
                self.prune_columns(plan.right, right_needed),
                plan.pairs,
            )
        if isinstance(plan, CrossProduct):
            left_columns = frozenset(self.cols(plan.left))
            right_columns = frozenset(self.cols(plan.right))
            left_needed = None if needed is None else needed & left_columns
            right_needed = None if needed is None else needed & right_columns
            return CrossProduct(
                self.prune_columns(plan.left, left_needed),
                self.prune_columns(plan.right, right_needed),
            )
        if isinstance(plan, UnionAll):
            return UnionAll(
                self.prune_columns(plan.left, needed),
                self.prune_columns(plan.right, needed),
            )
        if isinstance(plan, Difference):
            # Projection does not commute with set difference: both sides keep
            # their full width (the caller's _restrict projects afterwards).
            return Difference(
                self._prune(plan.left, None),
                self._prune(plan.right, None),
            )
        return plan

    # Negations over bound columns ----------------------------------------------

    def bind_negations(self, plan: PlanNode) -> PlanNode:
        """Anti-join a negation against the conjunct that binds its columns.

        The compiler negates over the active domain: ``alpha_P``, ``~(t1 =
        t2)`` and ``~phi`` become ``universe(V) ▷ R`` (or ``universe(V) − R``),
        where ``universe(V)`` is the product of one ``ActiveDomain`` per column.
        Inside a join chain, the other conjuncts ``A`` already bind some of
        ``V``, so

            A ⋈ (universe(V) ▷ R)  ==  (A × universe(V − cols A)) ▷ (R ⋉ π A)

        — the candidates are ``A``'s rows, not the domain, and only the
        refuted rows keyed like ``A`` are computed (:meth:`_push_semi` with
        ``domains=True``).  Negations move to the end of their chain, in order;
        the chain's columns keep their names and order.
        """
        if not isinstance(plan, NaturalJoin):
            children = _named_children(plan)
            if not children:
                return plan
            return _rebuild(plan, type(plan), **{name: self.bind_negations(child) for name, child in children})
        leaves: list[PlanNode] = []
        _flatten_joins(plan, leaves)
        leaves = [self.bind_negations(leaf) for leaf in leaves]
        negations = [leaf for leaf in leaves if _negation(leaf, self.cols) is not None]
        others = [leaf for leaf in leaves if leaf not in negations]
        bound_anywhere = {column for leaf in others for column in self.cols(leaf)}
        if not others or not any(bound_anywhere & set(self.cols(leaf)) for leaf in negations):
            return _chain(leaves)
        anchor = _chain(others)
        for leaf in negations:
            universe, refuted, pairs = _negation(leaf, self.cols)
            columns = self.cols(anchor)
            bound = tuple((key, column) for column, key in pairs if column in columns)
            if not bound:
                anchor = NaturalJoin(anchor, leaf)
                continue
            keys = tuple(dict.fromkeys(column for __, column in bound))
            sibling = anchor if columns == keys else Projection(anchor, keys)
            reduced = self._push_semi(refuted, sibling, bound, domains=True)
            anchor = AntiJoin(self._bind_universe(universe, anchor), reduced, pairs)
        original = self.cols(plan)
        return anchor if self.cols(anchor) == original else Projection(anchor, original)

    def _bind_universe(self, universe: PlanNode, keys: PlanNode) -> PlanNode:
        """``keys`` times the ``ActiveDomain`` factors of *universe* it does not bind.

        Equal to ``universe ⋉ keys`` (plus *keys*' other columns) because
        every value a plan produces lies in the active domain.
        """
        plan = keys
        bound = set(self.cols(keys))
        for domain in _domains(universe):
            if domain.column not in bound:
                plan = CrossProduct(plan, domain)
        return plan

    def _keys(self, filter_plan: PlanNode, pairs: tuple[tuple[str, str], ...]) -> PlanNode:
        """The filter's key columns, named like the columns they key."""
        keys = Projection(filter_plan, tuple(dict.fromkeys(key for __, key in pairs)))
        renaming = tuple((key, column) for column, key in pairs if key != column)
        return self.fold(RenameColumns(keys, renaming) if renaming else keys)

    def _push_into_negation(
        self,
        plan: AntiJoin | Difference,
        filter_plan: PlanNode,
        pairs: tuple[tuple[str, str], ...],
        domains: bool,
    ) -> PlanNode:
        """``plan ⋉ filter_plan`` for a negation over the active domain.

        The paired candidate columns become the filter's keys
        (:meth:`_bind_universe`) and the refuted side is reduced by the same
        keys, so no candidate outside the filter is ever produced.
        """
        universe, refuted, own = _negation(plan, self.cols)
        keys = dict(pairs)
        columns = self.cols(universe)
        if len(set(keys.values())) < len(keys):
            return plan  # one filter column keys two candidate columns
        source = self._bind_universe(universe, self._keys(filter_plan, pairs))
        if self.cols(source) != columns:
            source = Projection(source, columns)
        translated = tuple((filtered, keys[column]) for column, filtered in own if column in keys)
        reduced = self._push_semi(refuted, filter_plan, translated, domains)
        if isinstance(plan, AntiJoin):
            return AntiJoin(source, reduced, own)
        return Difference(source, reduced)

    # Sideways information passing (semi-join reduction) ------------------------

    def pass_sideways(self, plan: PlanNode) -> PlanNode:
        """Reduce expensive join/difference inputs by their siblings' key sets.

        For every two-input operator whose one side is estimated much smaller
        than the other, the large side is rewritten to a superset-free
        reduction: a :class:`SemiJoin` against the small side's key
        projection, pushed down to the underlying scans.  The filter subplan
        is (a projection of) the sibling itself, so after interning the
        executor's memo computes it exactly once per execution.  Every
        insertion preserves the final answer bit-for-bit: a semi-join only
        removes rows the enclosing operator would have dropped anyway.
        """
        children = _named_children(plan)
        if children:
            plan = _rebuild(
                plan, type(plan), **{name: self.pass_sideways(child) for name, child in children}
            )
        if isinstance(plan, NaturalJoin):
            shared = tuple(
                column for column in self.cols(plan.left) if column in self.cols(plan.right)
            )
            if shared:
                pairs = tuple((column, column) for column in shared)
                return self._reduce_sides(plan, pairs, pairs)
            return plan
        if isinstance(plan, EquiJoin) and plan.pairs:
            left_pairs = plan.pairs  # (left column, right column): reduce the left
            right_pairs = tuple((right, left) for left, right in plan.pairs)
            return self._reduce_sides(plan, left_pairs, right_pairs)
        if isinstance(plan, Difference):
            return self._reduce_difference(plan)
        return plan

    def _reduce_sides(
        self,
        join: NaturalJoin | EquiJoin,
        left_pairs: tuple[tuple[str, str], ...],
        right_pairs: tuple[tuple[str, str], ...],
    ) -> PlanNode:
        """Semi-join-reduce whichever join input dwarfs its sibling.

        The build side (``right``) is left alone when the executor probes it
        per key (:func:`_probed_per_key`): the plain indexed join already
        touches only the rows whose keys the probe side produces.
        """
        left_rows = self.estimate(join.left).rows
        right_rows = self.estimate(join.right).rows
        if (
            right_rows >= _SIP_MIN_ROWS
            and right_rows >= _SIP_RATIO * max(left_rows, 1.0)
            and not _probed_per_key(join.right)
        ):
            reduced = self._reduce(join.right, join.left, right_pairs)
            return _rebuild(join, type(join), right=reduced)
        if left_rows >= _SIP_MIN_ROWS and left_rows >= _SIP_RATIO * max(right_rows, 1.0):
            reduced = self._reduce(join.left, join.right, left_pairs)
            return _rebuild(join, type(join), left=reduced)
        return join

    def _reduce_difference(self, difference: Difference) -> PlanNode:
        """``L - R == AntiJoin(L, R ⋉ L)``: only filter rows keyed like ``L`` matter.

        Worth it when the right side is expensive and the left is small (the
        usual shape once selections are pushed: a selective left minus a
        negated-subquery right).  A left that is the compiler's
        active-domain universe is skipped — its key set covers everything,
        so the reduction could not drop a single row.
        """
        left_rows = self.estimate(difference.left).rows
        right_rows = self.estimate(difference.right).rows
        if right_rows < _SIP_MIN_ROWS or right_rows < _SIP_RATIO * max(left_rows, 1.0):
            return difference
        if _is_universe(difference.left):
            return difference
        columns = self.cols(difference.left)
        pairs = tuple((column, column) for column in columns)
        reduced = self._reduce(difference.right, difference.left, pairs)
        if reduced == difference.right:
            # Structural equality, not identity: _push_semi rebuilds wrapper
            # nodes even when no SemiJoin landed anywhere beneath them.
            return difference
        return AntiJoin(difference.left, reduced, pairs)

    def _reduce(
        self,
        source: PlanNode,
        sibling: PlanNode,
        pairs: tuple[tuple[str, str], ...],
    ) -> PlanNode:
        """Reduce *source* by *sibling*'s keys; returns *source* when not worth it.

        ``pairs`` is ``(source column, sibling column)``.  The filter becomes
        a projection of the sibling onto its key columns, so the sibling
        subplan is shared with its original occurrence through the memo.
        """
        if not pairs:
            return source
        key_columns = tuple(dict.fromkeys(column for __, column in pairs))
        sibling_columns = self.cols(sibling)
        filter_plan = sibling if sibling_columns == key_columns else Projection(sibling, key_columns)
        return self._push_semi(source, filter_plan, pairs)

    def _push_semi(
        self,
        plan: PlanNode,
        filter_plan: PlanNode,
        pairs: tuple[tuple[str, str], ...],
        domains: bool = False,
    ) -> PlanNode:
        """Push a semi-join filter down *plan*; returns *plan* where pointless.

        Invariant: the result agrees with *plan* exactly on rows whose pair
        key occurs in the filter; rows it adds or drops all have keys outside
        the filter, and every caller sits under an operator that discards
        those rows anyway (the sibling join input, or the anti/semi-join key
        intersection).  That is what makes partial pushes — splitting pairs
        across join sides, leaving un-pushable branches untouched — sound.

        With *domains*, an ``ActiveDomain`` leaf the filter reaches becomes
        the filter's keys (:meth:`bind_negations` restricting a negation's
        refuted side).  A negation over the active domain takes the filter
        into its candidates and its refuted side
        (:meth:`_push_into_negation`).
        """
        if not pairs:
            return plan
        if isinstance(plan, Selection):
            return _rebuild(plan, Selection, source=self._push_semi(plan.source, filter_plan, pairs, domains))
        if isinstance(plan, Projection):
            return Projection(self._push_semi(plan.source, filter_plan, pairs, domains), plan.columns)
        if isinstance(plan, RenameColumns):
            inverse = {new: old for old, new in plan.renaming}
            mapped = tuple((inverse.get(column, column), key) for column, key in pairs)
            return RenameColumns(self._push_semi(plan.source, filter_plan, mapped, domains), plan.renaming)
        if _negation(plan, self.cols) is not None:
            return self._push_into_negation(plan, filter_plan, pairs, domains)
        if isinstance(plan, (NaturalJoin, EquiJoin, CrossProduct)):
            left_columns = set(self.cols(plan.left))
            right_columns = set(self.cols(plan.right))
            left_pairs = tuple(pair for pair in pairs if pair[0] in left_columns)
            right_pairs = tuple(
                pair for pair in pairs if pair[0] not in left_columns and pair[0] in right_columns
            )
            replacements = {}
            if left_pairs:
                replacements["left"] = self._push_semi(plan.left, filter_plan, left_pairs, domains)
            if right_pairs:
                replacements["right"] = self._push_semi(plan.right, filter_plan, right_pairs, domains)
            return _rebuild(plan, type(plan), **replacements) if replacements else plan
        if isinstance(plan, UnionAll):
            return UnionAll(
                self._push_semi(plan.left, filter_plan, pairs, domains),
                self._push_semi(plan.right, filter_plan, pairs, domains),
            )
        if isinstance(plan, Difference):
            # Both sides: rows of either side outside the filter's keys can
            # only affect result rows that are themselves outside those keys.
            return Difference(
                self._push_semi(plan.left, filter_plan, pairs, domains),
                self._push_semi(plan.right, filter_plan, pairs, domains),
            )
        if isinstance(plan, (SemiJoin, AntiJoin)):
            source = self._push_semi(plan.source, filter_plan, pairs, domains)
            own = dict(plan.pairs)
            translated = tuple((own[column], key) for column, key in pairs if column in own)
            filtered = plan.filter
            if translated:
                filtered = self._push_semi(plan.filter, filter_plan, translated, domains)
            return type(plan)(source, filtered, plan.pairs)
        if isinstance(plan, ScanRelation):
            return SemiJoin(plan, filter_plan, pairs)
        if domains and isinstance(plan, ActiveDomain):
            # The domain restricted to the filter's keys is the keys (every
            # value a plan produces lies in the domain).
            return self._keys(filter_plan, pairs)
        # IndexScan (already selective), literals: the filter would cost
        # more than the rows it could remove.
        return plan

    # Common-subplan interning -------------------------------------------------

    def intern(self, plan: PlanNode, pool: dict[PlanNode, PlanNode] | None = None) -> PlanNode:
        """Make structurally equal subtrees reference-identical.

        The executor's memo keys on structural equality either way; interning
        keeps deep duplicated trees from occupying memory twice and makes the
        sharing visible to inspection tools.
        """
        if pool is None:
            pool = {}
        children = _named_children(plan)
        if children:
            plan = _rebuild(
                plan, type(plan), **{name: self.intern(child, pool) for name, child in children}
            )
        existing = pool.get(plan)
        if existing is not None:
            return existing
        pool[plan] = plan
        return plan


class _Estimate:
    """Estimated output size of a plan: row count plus per-column distincts."""

    __slots__ = ("rows", "distinct")

    def __init__(self, rows: float, distinct: dict[str, float]) -> None:
        self.rows = max(rows, 0.0)
        self.distinct = distinct

    def clamped(self) -> "_Estimate":
        limit = max(self.rows, 1.0)
        self.distinct = {column: min(value, limit) for column, value in self.distinct.items()}
        return self


def _join_estimate(left: _Estimate, right: _Estimate) -> _Estimate:
    shared = set(left.distinct) & set(right.distinct)
    rows = left.rows * right.rows
    for column in shared:
        rows /= max(left.distinct[column], right.distinct[column], 1.0)
    distinct = dict(left.distinct)
    distinct.update(right.distinct)
    for column in shared:
        distinct[column] = min(left.distinct[column], right.distinct[column])
    return _Estimate(rows, distinct).clamped()


def _flatten_joins(plan: PlanNode, leaves: list[PlanNode]) -> None:
    if isinstance(plan, NaturalJoin):
        _flatten_joins(plan.left, leaves)
        _flatten_joins(plan.right, leaves)
    else:
        leaves.append(plan)


def _is_true_literal(plan: PlanNode) -> bool:
    return isinstance(plan, LiteralTable) and plan.columns == () and plan.rows == frozenset({()})


def _values_comparable(left: object, right: object) -> bool:
    """Whether ``left == right`` can be decided before parameter binding.

    Equal values (including the *same* parameter twice) compare equal under
    any binding; two non-parameters compare however they compare.  One
    parameter against anything else is undecidable until substitution.
    """
    if left == right:
        return True
    return not isinstance(left, Parameter) and not isinstance(right, Parameter)


def _filter_literal(literal: LiteralTable, bindings, equalities) -> LiteralTable | None:
    """Pre-apply a structured selection to a literal; ``None`` when undecidable.

    A comparison involving an unbound :class:`Parameter` placeholder has no
    truth value yet — folding it would bake one binding's outcome into every
    binding's plan — so the caller keeps the selection for execution time.
    """
    index = {column: i for i, column in enumerate(literal.columns)}
    for row in literal.rows:
        for column, value in bindings:
            if not _values_comparable(row[index[column]], value):
                return None
        for group in equalities:
            cells = [row[index[column]] for column in group]
            if any(not _values_comparable(cells[0], cell) for cell in cells[1:]):
                return None
    kept = frozenset(
        row
        for row in literal.rows
        if all(row[index[column]] == value for column, value in bindings)
        and all(len({row[index[column]] for column in group}) == 1 for group in equalities)
    )
    return LiteralTable(literal.columns, kept)


#: Sentinel: duplicate bindings whose agreement depends on a parameter value.
_UNDECIDED = object()


def _dedupe_bindings(bindings):
    """Merge duplicate column bindings.

    Returns the merged tuple, ``None`` for a provable contradiction (two
    different constants on one column), or :data:`_UNDECIDED` when the
    verdict depends on an unbound parameter — the caller then leaves the
    selection in place for execution after substitution.
    """
    merged: dict[str, object] = {}
    order: list[str] = []
    for column, value in bindings:
        if column in merged:
            if merged[column] != value:
                if not _values_comparable(merged[column], value):
                    return _UNDECIDED
                return None
        else:
            merged[column] = value
            order.append(column)
    return tuple((column, merged[column]) for column in order)


def _merge_descriptions(first: str, second: str) -> str:
    if first == second:
        return first
    return f"{first} & {second}"


def _named_children(plan: PlanNode) -> list[tuple[str, PlanNode]]:
    if isinstance(plan, (Selection, Projection, RenameColumns)):
        return [("source", plan.source)]
    if isinstance(plan, (NaturalJoin, EquiJoin, CrossProduct, UnionAll, Difference)):
        return [("left", plan.left), ("right", plan.right)]
    if isinstance(plan, (SemiJoin, AntiJoin)):
        return [("source", plan.source), ("filter", plan.filter)]
    return []


def _is_universe(plan: PlanNode) -> bool:
    """Whether *plan* is the compiler's active-domain universe (or a product of them)."""
    if isinstance(plan, ActiveDomain):
        return True
    if isinstance(plan, CrossProduct):
        return _is_universe(plan.left) and _is_universe(plan.right)
    return False


def _negation(plan: PlanNode, cols) -> tuple[PlanNode, PlanNode, tuple[tuple[str, str], ...]] | None:
    """``(universe, refuted, pairs)`` of a compiled negation over the active domain, else ``None``."""
    if isinstance(plan, AntiJoin) and _is_universe(plan.source):
        return plan.source, plan.filter, plan.pairs
    if isinstance(plan, Difference) and _is_universe(plan.left):
        return plan.left, plan.right, tuple((column, column) for column in cols(plan.left))
    return None


def _probed_per_key(plan: PlanNode) -> bool:
    """Whether a join probes *plan*, as its build side, per key.

    A stored relation seen through any renames is probed through its cached
    columnar index, ``PE`` per key, and ``PE`` semi-joined on its other
    column per key within the semi-join's keys
    (:func:`~repro.physical.algebra.probed_within`).  Reducing such a side
    by the join's other side would only add work: an index probe per
    sibling key, a materialized memo of the sibling and a fresh hash table.
    """
    while isinstance(plan, RenameColumns):
        plan = plan.source
    if isinstance(plan, SemiJoin):
        plan = plan.source
        return isinstance(plan, ScanRelation) and plan.relation == PE_PREDICATE
    return isinstance(plan, ScanRelation)


def _domains(universe: PlanNode) -> list[ActiveDomain]:
    """The ``ActiveDomain`` factors of a universe, left to right."""
    if isinstance(universe, CrossProduct):
        return _domains(universe.left) + _domains(universe.right)
    return [universe]


def _chain(leaves: list[PlanNode]) -> PlanNode:
    rebuilt = leaves[0]
    for leaf in leaves[1:]:
        rebuilt = NaturalJoin(rebuilt, leaf)
    return rebuilt


def _rebuild(plan: PlanNode, node_type, **replacements) -> PlanNode:
    """Copy *plan* with some fields replaced (no-op when nothing changed)."""
    fields = {name: getattr(plan, name) for name in plan.__dataclass_fields__}  # type: ignore[attr-defined]
    if all(fields[name] == value for name, value in replacements.items()):
        return plan
    fields.update(replacements)
    return node_type(**fields)
