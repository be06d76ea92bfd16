"""Cost-based choice between the Tarskian evaluator and the algebra engine.

Both engines compute exactly the same answers (the property every ablation
re-checks), but their run times diverge: the algebra engine wins when joins
can be ordered, indexed and semi-join-reduced, while the direct Tarskian
evaluator wins when bounded quantifier enumeration touches only a handful of
candidate values — or when the query is second order, which the algebra
compiler cannot express at all.  This module estimates both costs for a
given (query, statistics) pair so callers asking for ``engine="auto"`` get
routed to whichever evaluator is expected to be cheaper.

The Tarskian model mirrors :func:`repro.physical.evaluator.candidate_values`:
each quantified (or head) variable multiplies the search space by its
candidate-set size — the full domain when no sound restriction exists — and
each connective adds the cost of its operands.  An ``alpha_P`` extension atom
is not a lookup: one check runs Lemma 10's disagreement test against every
stored tuple of ``P``, so it is priced at ``|I(P)| * arity``.  The algebra model is
:func:`repro.physical.optimizer.plan_cost` over the *optimized* plan, so
observed cardinalities recorded by the feedback loop sharpen the dispatch
decision exactly as they sharpen join ordering.
"""

from __future__ import annotations

from repro.errors import DatabaseError
from repro.logic.analysis import is_first_order
from repro.logic.formulas import (
    And,
    Atom,
    Bottom,
    Equals,
    Exists,
    ExtensionAtom,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    SecondOrderExists,
    SecondOrderForall,
    Top,
)
from repro.logic.queries import Query
from repro.physical.database import PhysicalDatabase
from repro.physical.evaluator import candidate_values
from repro.physical.optimizer import plan_cost
from repro.physical.plan import PlanNode
from repro.physical.relation import Relation
from repro.physical.statistics import Statistics, statistics_for

__all__ = ["tarskian_cost", "prefer_tarskian", "choose_engine"]

#: The Tarskian route must look at least this much cheaper (cost below
#: ``plan_cost * margin``) before "auto" leaves the algebra engine — near-
#: ties stay with the default, so a feedback update that nudges one cost
#: model slightly cannot flap the dispatch decision back and forth.
_ALGEBRA_MARGIN = 0.75


def tarskian_cost(storage: PhysicalDatabase, query: Query) -> float:
    """Estimated work of the bounded-enumeration Tarskian route.

    Counts assignments tried: the product of candidate-set sizes over the
    head variables, times the (recursively estimated) cost of checking the
    body under each assignment.
    """

    def atom_values(predicate: str, position: int):
        try:
            relation = storage.relation(predicate)
        except DatabaseError:
            return None
        if isinstance(relation, Relation):
            return relation.column_values(position)
        return None

    domain_size = max(len(storage.domain), 1)

    def variable_width(formula: Formula, variable) -> float:
        candidates = candidate_values(formula, variable, atom_values, storage.constant_value)
        if candidates is None:
            return float(domain_size)
        return float(max(len(candidates), 1))

    def formula_cost(formula: Formula) -> float:
        if isinstance(formula, ExtensionAtom) and hasattr(formula, "predicate"):
            try:
                stored = statistics_for(storage).row_count(formula.predicate)
            except DatabaseError:  # bound by a second-order quantifier
                return 1.0
            return float(max(stored * len(formula.args), 1))
        if isinstance(formula, (Top, Bottom, Atom, Equals, ExtensionAtom)):
            return 1.0
        if isinstance(formula, Not):
            return formula_cost(formula.operand)
        if isinstance(formula, (And, Or)):
            return sum(formula_cost(operand) for operand in formula.operands)
        if isinstance(formula, Implies):
            return formula_cost(formula.antecedent) + formula_cost(formula.consequent)
        if isinstance(formula, Iff):
            return formula_cost(formula.left) + formula_cost(formula.right)
        if isinstance(formula, (Exists, Forall)):
            width = 1.0
            for variable in formula.variables:
                width *= variable_width(formula.body, variable)
            return width * formula_cost(formula.body)
        if isinstance(formula, (SecondOrderExists, SecondOrderForall)):
            # Exponential in the bound relation's extension; any finite
            # stand-in larger than every first-order estimate will do.
            return float(2 ** min(domain_size, 62))
        return float(domain_size)

    width = 1.0
    for variable in query.head:
        width *= variable_width(query.formula, variable)
    return width * formula_cost(query.formula)


def prefer_tarskian(
    storage: PhysicalDatabase,
    query: Query,
    plan: PlanNode,
    statistics: Statistics | None = None,
) -> bool:
    """Whether the Tarskian evaluator looks cheaper than executing *plan*.

    *query* must be the rewritten (``Q-hat``) first-order query the engines
    would actually evaluate, and *plan* its compiled, optimized algebra plan.
    """
    return tarskian_cost(storage, query) < plan_cost(plan, storage, statistics) * _ALGEBRA_MARGIN


def choose_engine(storage: PhysicalDatabase, query: Query, plan: PlanNode | None) -> str:
    """Resolve ``engine="auto"`` to a concrete engine name.

    Second-order rewrites (no algebra plan exists) always go to the Tarskian
    side; first-order queries go to whichever cost model says is cheaper.
    """
    if plan is None or not is_first_order(query.formula):
        return "tarski"
    return "tarski" if prefer_tarskian(storage, query, plan) else "algebra"
