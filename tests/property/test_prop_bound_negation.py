"""Property test: a negation anti-joins the conjunct that binds its columns.

The compiler negates over the active domain — ``alpha_P``, ``~(t1 = t2)``
and ``~phi`` become ``universe(V) ▷ R`` or ``universe(V) − R`` — and the
optimizer (:meth:`~repro.physical.optimizer._Rewriter.bind_negations`)
replaces the universe by the positive conjunct that binds ``V``.  Over
random databases with nulls, for conjunctions whose positive conjunct binds
all or only some of the negated variables:

* the optimized plan answers like the Tarskian evaluator (on a reference
  ``Ph2`` whose ``NE`` is materialized) and like the unoptimized plan, on
  both executors, with and without the semi-join reducer;
* it has no ``ActiveDomain`` leaf for a column the conjunct binds.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.rewrite import rewrite_query
from repro.logic.parser import parse_query
from repro.logical.database import CWDatabase
from repro.logical.ph import ph2
from repro.physical.algebra import execute
from repro.physical.compiler import compile_query
from repro.physical.evaluator import evaluate_query
from repro.physical.optimizer import optimize
from repro.physical.plan import ActiveDomain
from tests.property.strategies import NEGATION_SCHEMA, materialized_ph2

#: ``(query, columns the positive conjunct binds, rewritten?)``.  Rewritten
#: queries go through the approximation (``alpha_P``, ``NE``, and ``~phi``
#: from ``forall``); the others compile ``~phi`` as written.
CASES = (
    # alpha_P
    ("(x, y) . R(x, y) & ~R(y, x)", {"x", "y"}, True),
    ("(x, y) . R(x, y) & ~T(x, y, '{c}')", {"x", "y"}, True),
    ("(x, z) . P(x) & ~R(x, z)", {"x"}, True),
    ("(x, y, z) . R(x, y) & ~T(y, z, x)", {"x", "y"}, True),
    ("(x) . exists y. R(x, y) & ~T(x, y, y)", {"x", "y"}, True),
    ("(x, y) . P(x) & ~R(x, y) & ~R(y, '{c}')", {"x"}, True),
    # ~(t1 = t2)
    ("(x, y) . R(x, y) & ~(x = y)", {"x", "y"}, True),
    ("(x, y) . P(x) & ~(x = y)", {"x"}, True),
    ("(x) . P(x) & ~(x = '{c}')", {"x"}, True),
    # ~phi
    ("(x) . P(x) & forall y. ~R(x, y)", {"x"}, True),
    ("(x, y) . R(x, y) & forall z. ~T(x, y, z)", {"x", "y"}, True),
    ("(x) . P(x) & ~(exists y. R(x, y) & P(y))", {"x"}, False),
    ("(x, y) . R(x, y) & ~(P(x) & P(y))", {"x", "y"}, False),
    ("(x, z) . P(x) & ~(R(x, z) | P(z))", {"x"}, False),
)


@st.composite
def databases(draw) -> CWDatabase:
    """2-5 constants, a few facts per predicate, a random subset of the axioms."""
    constants = ("a", "b", "c", "d", "e")[: draw(st.integers(min_value=2, max_value=5))]
    facts = {
        predicate: draw(st.sets(st.tuples(*[st.sampled_from(constants)] * arity), max_size=5))
        for predicate, arity in NEGATION_SCHEMA.items()
    }
    pairs = [(left, right) for i, left in enumerate(constants) for right in constants[i + 1 :]]
    return CWDatabase(constants, dict(NEGATION_SCHEMA), facts, draw(st.sets(st.sampled_from(pairs))))


def _nodes(plan):
    yield plan
    for child in plan.children():
        yield from _nodes(child)


@settings(max_examples=200, deadline=None)
@given(database=databases(), case=st.sampled_from(CASES), data=st.data())
def test_bound_negations_answer_as_written(database, case, data):
    template, bound, rewritten = case
    query = parse_query(template.format(c=data.draw(st.sampled_from(database.constants))))
    storage = ph2(database)
    if rewritten:
        query = rewrite_query(query)
        truth = evaluate_query(materialized_ph2(database), query)
    else:
        truth = evaluate_query(storage, query)
    naive = compile_query(query, storage)
    assert execute(naive, storage, vectorize=False).rows == truth
    for sip in (True, False):
        plan = optimize(naive, storage, sip=sip)
        assert not {node.column for node in _nodes(plan) if isinstance(node, ActiveDomain)} & bound
        assert execute(plan, storage, vectorize=False).rows == truth
        assert execute(plan, storage).rows == truth
