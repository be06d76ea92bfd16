"""Property test: ``Ph2``'s ``NE`` is the paper's relation, read off ``U``/``NE'``.

Section 5 ends by recommending that ``NE`` be stored as ``U`` plus ``NE'``
and read as ``NE(x, y) = NE'(x, y) | (~U(x) & ~U(y) & x != y)``.  The library
stores nothing else, so the quadratic relation exists only here, as the
oracle (:func:`tests.property.strategies.materialized_ph2`, built from
:meth:`~repro.logical.database.CWDatabase.unequal_pairs`).  Over fully
specified databases, databases without uniqueness axioms, random ones and
random ones written down with a too-large ``U``:

* ``NE`` membership, length, iteration and values equal the reference set;
* approximate answers on ``Ph2`` — Tarskian, compiled (naive and optimized)
  and prepared — equal Tarskian evaluation on the reference ``Ph2``, for
  random queries and for every shape a negated equality takes
  (``~(x = y)``, ``~(x = 'c')``, ``~(x = $p)``, ``~(x = x)``, ``~('a' = 'b')``).
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.evaluator import ApproximateEvaluator
from repro.approx.rewrite import rewrite_query
from repro.logic.parser import parse_query
from repro.logic.template import bind_query, query_parameters
from repro.logical.database import CWDatabase
from repro.logical.ph import ph2
from repro.physical.algebra import execute
from repro.physical.compiler import compile_query
from repro.physical.evaluator import evaluate_query
from repro.service.engine import QueryService
from repro.service.protocol import answers_to_wire
from tests.property.strategies import cw_databases, materialized_ph2, queries

SHAPES = (
    "(x, y) . ~(x = y)",
    "(x, y) . R(x, y) & ~(x = y)",
    "(x) . P(x) & ~(x = 'a')",
    "(x) . ~(x = 'b')",
    "(x) . ~(x = x)",
    "() . ~('a' = 'b')",
    "(x) . exists y. R(x, y) & ~(y = x) & ~(y = 'a')",
    "(x) . ~(x = $p)",
    "(x) . exists y. R(x, y) & ~(y = $p)",
)


def _wide_cover(database: CWDatabase) -> CWDatabase:
    """The same axioms, written down with every missing-pair endpoint in ``U``."""
    endpoints = {constant for pair in database.missing_uniqueness_pairs() for constant in pair}
    return CWDatabase.from_unknowns(
        database.constants,
        database.predicates,
        database.facts,
        unknown=endpoints,
        explicit=[pair for pair in database.unequal_pairs() if set(pair) & endpoints],
    )


def databases():
    return st.one_of(
        cw_databases(),
        cw_databases().map(CWDatabase.fully_specified),
        cw_databases().map(CWDatabase.without_uniqueness),
        cw_databases().map(_wide_cover),
    )


@settings(max_examples=60, deadline=None)
@given(database=databases())
def test_ne_is_the_quadratic_reference(database):
    ne = ph2(database).relation("NE")
    reference = frozenset(materialized_ph2(database).relation("NE"))
    for pair in product(database.constants, repeat=2):
        assert (pair in ne) == (pair in reference), pair
    assert len(ne) == len(reference)
    assert frozenset(ne) == reference
    assert ne.values() == {value for pair in reference for value in pair}
    assert ph2(database).possibly_equal() == materialized_ph2(database).possibly_equal()


def _assert_answers_match_the_reference(database: CWDatabase, query) -> None:
    storage, reference = ph2(database), materialized_ph2(database)
    rewritten = rewrite_query(query)
    truth = evaluate_query(reference, rewritten)
    for engine in ("tarski", "algebra", "auto"):
        assert ApproximateEvaluator(engine=engine).answers_on_storage(storage, query) == truth, engine
    assert execute(compile_query(rewritten, storage), storage, vectorize=False).rows == truth


@settings(max_examples=60, deadline=None)
@given(database=databases(), query=queries())
def test_random_queries_answer_as_on_the_reference(database, query):
    _assert_answers_match_the_reference(database, query)


@settings(max_examples=40, deadline=None)
@given(database=databases())
def test_negated_equality_shapes_answer_as_on_the_reference(database):
    service = QueryService(answer_cache_capacity=0)
    service.register("db", database)
    try:
        for text in SHAPES:
            template = parse_query(text)
            if not query_parameters(template):
                _assert_answers_match_the_reference(database, template)
                continue
            statement = service.prepare("db", text, engine="algebra")
            for constant in database.constants:
                bound = bind_query(template, {"p": constant})
                _assert_answers_match_the_reference(database, bound)
                prepared = service.execute_prepared(statement.statement_id, {"p": constant})
                truth = evaluate_query(materialized_ph2(database), rewrite_query(bound))
                assert [list(row) for row in prepared.answers["approximate"]] == answers_to_wire(truth)
    finally:
        service.close()
