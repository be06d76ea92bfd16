"""Compilation of first-order queries into relational-algebra plans.

Section 5 of the paper ends by noting that the approximation scheme "can be
practically implemented on the top of existing database management systems":
the rewritten query ``Q-hat`` is evaluated over the stored database
``Ph2(LB)`` by an ordinary relational engine.  This compiler provides that
second evaluation path, next to the direct Tarskian evaluator, using the
classical *active-domain* translation of the relational calculus into the
relational algebra:

* every variable ranges over the active domain (the values stored in some
  relation or assigned to some constant);
* conjunction becomes a natural join, disjunction a union (after padding the
  operands to a common column set), negation a set difference against the
  active-domain product, and existential quantification a projection.

For the databases this library builds from logical databases (``Ph1``/``Ph2``)
the active domain equals the whole domain, so the compiled plan computes
exactly the Tarskian answer; the ablation experiment E12 checks this
agreement and compares run times.

Extension atoms (the ``alpha_P`` atoms of Lemma 10) compile to ordinary
operators as well — Lemma 10 says ``alpha_P`` is first-order over ``Ph2(LB)``,
so nothing about it needs evaluating at compile time:

    alpha_P(t) = Cand(vars) |> project_vars select_exact( P(y) |x|_i PE(t_i, y_i) )

``|>`` is an anti-join and ``PE`` ("possibly equal") is the complement of
``NE`` over the active domain, derived once per database
(:meth:`~repro.physical.database.PhysicalDatabase.possibly_equal`).  A
candidate ``c`` fails ``alpha_P`` iff some stored ``d`` does *not* disagree
with it, and not disagreeing implies ``PE(c_i, d_i)`` in every column, so the
column-wise join finds every such pair; ``select_exact`` then re-checks the
few survivors whose graph ``G_{c,d}`` merges columns (:class:`_MayCoincide`).
Constant and ``$parameter`` arguments are bindings on ``PE``'s first column,
so a template compiles once and is rebound by
:func:`~repro.physical.plan.substitute_plan_parameters` like any other plan.
The per-tuple decision procedure :meth:`repro.approx.alpha.AlphaAtom.holds`
is the test oracle, not part of this path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import UnsupportedFormulaError
from repro.logic.analysis import free_variables, is_first_order
from repro.logic.formulas import (
    And,
    Atom,
    Bottom,
    Equals,
    Exists,
    ExtensionAtom,
    Forall,
    Formula,
    Not,
    Or,
    Top,
)
from repro.logic.queries import Query
from repro.logic.terms import Constant, Parameter, Variable
from repro.logic.transform import eliminate_implications, standardize_apart
from repro.logic.vocabulary import PE_PREDICATE
from repro.physical.algebra import execute
from repro.physical.database import PhysicalDatabase
from repro.physical.optimizer import optimize as optimize_plan
from repro.physical.plan import (
    ActiveDomain,
    AntiJoin,
    CrossProduct,
    Difference,
    LiteralTable,
    NaturalJoin,
    PlanNode,
    Projection,
    RenameColumns,
    ScanRelation,
    Selection,
    Table,
)

__all__ = ["compile_query", "compile_formula", "evaluate_query_algebra"]

_TRUE_TABLE = LiteralTable((), frozenset({()}))
_FALSE_TABLE = LiteralTable((), frozenset())


def evaluate_query_algebra(
    database: PhysicalDatabase,
    query: Query,
    optimize: bool = True,
    use_indexes: bool = True,
) -> frozenset[tuple]:
    """Evaluate *query* by compiling it to algebra and executing the plan.

    The compiled plan is rewritten by :mod:`repro.physical.optimizer` unless
    *optimize* is ``False``; answers are identical either way.
    """
    plan = compile_query(query, database)
    if optimize:
        plan = optimize_plan(plan, database)
    return execute(plan, database, use_indexes=use_indexes).rows


def compile_query(query: Query, database: PhysicalDatabase) -> PlanNode:
    """Compile a first-order query into a plan whose columns follow the head order."""
    plan, columns = compile_formula(query.formula, database)
    head_names = tuple(variable.name for variable in query.head)
    for name in head_names:
        if name not in columns:
            plan = CrossProduct(plan, ActiveDomain(name)) if columns else _pad_empty(plan, name)
            columns = columns + (name,)
    return Projection(plan, head_names)


def _pad_empty(plan: PlanNode, column: str) -> PlanNode:
    """Extend a 0-column plan with an active-domain column."""
    return CrossProduct(plan, ActiveDomain(column))


def compile_formula(formula: Formula, database: PhysicalDatabase) -> tuple[PlanNode, tuple[str, ...]]:
    """Compile *formula*; returns the plan and its output columns (free variables).

    The formula must be first-order.  Implications are eliminated and bound
    variables standardized apart before translation so column names never
    collide across quantifier scopes.
    """
    if not is_first_order(formula):
        raise UnsupportedFormulaError("the algebra compiler only supports first-order formulas")
    avoid = {variable.name for variable in free_variables(formula)}
    prepared = standardize_apart(eliminate_implications(formula), avoid)
    return _compile(prepared, database)


def _compile(formula: Formula, database: PhysicalDatabase) -> tuple[PlanNode, tuple[str, ...]]:
    if isinstance(formula, Top):
        return _TRUE_TABLE, ()
    if isinstance(formula, Bottom):
        return _FALSE_TABLE, ()
    if isinstance(formula, ExtensionAtom):
        return _compile_extension_atom(formula, database)
    if isinstance(formula, Atom):
        return _compile_atom(formula, database)
    if isinstance(formula, Equals):
        return _compile_equality(formula, database)
    if isinstance(formula, Not):
        return _compile_negation(formula, database)
    if isinstance(formula, And):
        plan, columns = _compile(formula.operands[0], database)
        for operand in formula.operands[1:]:
            other_plan, other_columns = _compile(operand, database)
            plan = NaturalJoin(plan, other_plan)
            columns = columns + tuple(c for c in other_columns if c not in columns)
        return plan, columns
    if isinstance(formula, Or):
        compiled = [_compile(operand, database) for operand in formula.operands]
        all_columns: tuple[str, ...] = ()
        for __, columns in compiled:
            all_columns = all_columns + tuple(c for c in columns if c not in all_columns)
        padded = [_pad_to(plan, columns, all_columns) for plan, columns in compiled]
        plan = padded[0]
        from repro.physical.plan import UnionAll

        for other in padded[1:]:
            plan = UnionAll(plan, other)
        return plan, all_columns
    if isinstance(formula, Exists):
        body_plan, body_columns = _compile(formula.body, database)
        bound = {variable.name for variable in formula.variables}
        remaining = tuple(column for column in body_columns if column not in bound)
        return Projection(body_plan, remaining), remaining
    if isinstance(formula, Forall):
        # forall x. phi  ==  not exists x. not phi
        rewritten = Not(Exists(formula.variables, Not(formula.body)))
        return _compile(rewritten, database)
    raise UnsupportedFormulaError(f"cannot compile formula node {type(formula).__name__}")


def _compile_atom(atom: Atom, database: PhysicalDatabase) -> tuple[PlanNode, tuple[str, ...]]:
    raw_columns = tuple(f"__col{i}" for i in range(len(atom.args)))
    plan: PlanNode = ScanRelation(atom.predicate, raw_columns)

    conditions: list[tuple[str, object]] = []
    variable_columns: dict[str, list[str]] = {}
    for column, term in zip(raw_columns, atom.args):
        if isinstance(term, Parameter):
            # The parameter itself is the binding value: a placeholder that
            # substitute_plan_parameters swaps for the bound constant's value.
            # It can never accidentally match stored data (distinct type).
            conditions.append((column, term))
        elif isinstance(term, Constant):
            conditions.append((column, database.constant_value(term.name)))
        else:
            variable_columns.setdefault(term.name, []).append(column)

    if conditions:
        plan = Selection(
            plan,
            None,
            description=" & ".join(f"{column}={value!r}" for column, value in conditions),
            bindings=tuple(conditions),
        )
    repeated = {name: cols for name, cols in variable_columns.items() if len(cols) > 1}
    if repeated:
        plan = Selection(
            plan,
            None,
            description="repeated-variable equality",
            equalities=tuple(tuple(columns) for columns in repeated.values()),
        )

    renaming = tuple((columns[0], name) for name, columns in variable_columns.items())
    output = tuple(name for name in variable_columns)
    keep = tuple(columns[0] for columns in variable_columns.values())
    plan = Projection(plan, keep)
    if renaming:
        plan = RenameColumns(plan, renaming)
    return plan, output


@dataclass(frozen=True)
class _MayCoincide:
    """``select_exact``: may candidate tuple ``c`` equal stored tuple ``d``?

    True iff ``c`` and ``d`` do *not* disagree (Lemma 10): no two values in
    one connected component of ``G_{c,d}`` — the graph linking ``c_i`` to
    ``d_i`` in every column — are a declared-unequal pair, i.e. every
    component is a clique of ``PE``.  Rows reaching this filter already
    satisfy ``PE(c_i, d_i)`` column by column (the join below it), which
    decides every row in which no value occurs twice; the graph is only
    built for the others.  A value object rather than a closure so that two
    compilations of one query give equal, equally hashed plans.
    """

    #: ``(column of c_i, column of d_i)`` per argument position.
    pairs: tuple[tuple[str, str], ...]
    possibly_equal: frozenset[tuple] = field(repr=False)

    def __call__(self, row: Mapping[str, object]) -> bool:
        values = [row[column] for pair in self.pairs for column in pair]
        if len(set(values)) == len(values):
            return True  # no value occurs twice: every component is one column
        components: list[set] = []
        for edge in zip(values[::2], values[1::2]):
            merged = set(edge)
            for component in [c for c in components if c & merged]:
                components.remove(component)
                merged |= component
            components.append(merged)
        return all(
            (left, right) in self.possibly_equal
            for component in components
            for left in component
            for right in component
        )


def _compile_extension_atom(atom: ExtensionAtom, database: PhysicalDatabase) -> tuple[PlanNode, tuple[str, ...]]:
    """Compile ``alpha_P(t)`` to an anti-join of candidates against refuted ones.

    The filter side joins the stored tuples ``P(y)`` with one ``PE(t_i, y_i)``
    scan per argument position and projects onto the atom's variables: the
    candidates some stored tuple may coincide with, which are exactly those
    ``alpha_P`` rejects.  Candidates are active-domain columns, which sibling
    joins restrict through sideways information passing.
    """
    predicate = getattr(atom, "predicate", None)
    if predicate is None:
        raise UnsupportedFormulaError(
            f"cannot compile {type(atom).__name__}: the algebra compiler translates extension atoms "
            "as provable-absence (alpha_P) atoms over a stored predicate"
        )
    stored_columns = tuple(f"__y{i}" for i in range(len(atom.args)))
    refuted: PlanNode = ScanRelation(predicate, stored_columns)
    variables: list[str] = []
    argument_columns: list[str] = []
    for position, (term, stored) in enumerate(zip(atom.args, stored_columns)):
        if isinstance(term, Constant):
            column = f"__t{position}"
            value = _constant_plan_value(term, database)
            link: PlanNode = Selection(
                ScanRelation(PE_PREDICATE, (column, stored)),
                None,
                description=f"{column}={value!r}",
                bindings=((column, value),),
            )
        else:
            column = term.name
            if column not in variables:
                variables.append(column)
            link = ScanRelation(PE_PREDICATE, (column, stored))
        argument_columns.append(column)
        refuted = NaturalJoin(refuted, link)
    if len(stored_columns) > 1:
        refuted = Selection(
            refuted,
            _MayCoincide(
                tuple(zip(argument_columns, stored_columns)),
                database.possibly_equal().tuples,
            ),
            description=f"({', '.join(argument_columns)}) may equal ({', '.join(stored_columns)})",
        )
    columns = tuple(variables)
    return AntiJoin(_universe(columns), Projection(refuted, columns), tuple((c, c) for c in columns)), columns


def _constant_plan_value(term: Constant, database: PhysicalDatabase) -> object:
    """The plan-level value of a constant term: parameters stay placeholders."""
    if isinstance(term, Parameter):
        return term
    return database.constant_value(term.name)


def _compile_equality(formula: Equals, database: PhysicalDatabase) -> tuple[PlanNode, tuple[str, ...]]:
    left, right = formula.left, formula.right
    if isinstance(left, Constant) and isinstance(right, Constant):
        left_value = _constant_plan_value(left, database)
        right_value = _constant_plan_value(right, database)
        if isinstance(left_value, Parameter) or isinstance(right_value, Parameter):
            if left_value == right_value:
                # The same parameter on both sides is equal under any binding.
                return _TRUE_TABLE, ()
            # The outcome depends on the binding: compile a 0-column plan
            # whose selection is decided after parameter substitution.  The
            # optimizer's folding passes deliberately refuse to pre-evaluate
            # comparisons that involve a Parameter value.
            plan = Projection(
                Selection(
                    LiteralTable(("__peq",), frozenset({(left_value,)})),
                    None,
                    description=f"{left} = {right}",
                    bindings=(("__peq", right_value),),
                ),
                (),
            )
            return plan, ()
        return (_TRUE_TABLE if left_value == right_value else _FALSE_TABLE), ()
    if isinstance(left, Constant) or isinstance(right, Constant):
        constant = left if isinstance(left, Constant) else right
        variable = right if isinstance(left, Constant) else left
        assert isinstance(variable, Variable)
        value = _constant_plan_value(constant, database)
        return LiteralTable((variable.name,), frozenset({(value,)})), (variable.name,)
    assert isinstance(left, Variable) and isinstance(right, Variable)
    if left.name == right.name:
        return ActiveDomain(left.name), (left.name,)
    pairs = CrossProduct(ActiveDomain(left.name), ActiveDomain(right.name))
    plan = Selection(
        pairs,
        None,
        description=f"{left.name} = {right.name}",
        equalities=((left.name, right.name),),
    )
    return plan, (left.name, right.name)


def _universe(columns: tuple[str, ...]) -> PlanNode:
    """Every active-domain tuple over *columns* (the one empty row for none)."""
    if not columns:
        return _TRUE_TABLE
    universe: PlanNode = ActiveDomain(columns[0])
    for column in columns[1:]:
        universe = CrossProduct(universe, ActiveDomain(column))
    return universe


def _compile_negation(formula: Not, database: PhysicalDatabase) -> tuple[PlanNode, tuple[str, ...]]:
    inner_plan, columns = _compile(formula.operand, database)
    return Difference(_universe(columns), inner_plan), columns


def _pad_to(plan: PlanNode, columns: tuple[str, ...], target: tuple[str, ...]) -> PlanNode:
    """Extend *plan* with active-domain columns so it covers *target*."""
    current = columns
    for column in target:
        if column not in current:
            plan = CrossProduct(plan, ActiveDomain(column))
            current = current + (column,)
    if current != target:
        plan = Projection(plan, target)
    return plan
