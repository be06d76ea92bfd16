"""Property tests: prepared and ad-hoc execution both match the reference.

Over random small databases and random queries, turning every constant of
the query into a ``$`` parameter and executing the resulting template
through the prepared fast path (template plan + value substitution) must
produce **byte-identical** wire answers to the ad-hoc request for the bound
query — and, on the exact route, agree with Tarskian certain-answer ground
truth.  Since ad-hoc requests run on the plan of their lifted shape too,
prepared-equals-ad-hoc alone would compare one route with itself, so both
are also checked against the materialized reference
``evaluate_query(materialized_ph2(db), rewrite_query(q))`` — including a
second binding of one shape that is served from the plan cache.  This is the
protocol-level analogue of the optimizer-equivalence properties: the session
API may never change an answer.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.formulas import (
    And,
    Atom,
    Equals,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
)
from repro.logic.printer import query_to_text
from repro.logic.queries import Query
from repro.logic.template import bind_query, lift_constants, lifted_text, query_parameters
from repro.logic.terms import Constant, Parameter
from repro.approx.rewrite import rewrite_query
from repro.logical.exact import certain_answers
from repro.physical.evaluator import evaluate_query
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, answers_to_wire
from tests.property.strategies import cw_databases, materialized_ph2, queries

MAX_EXAMPLES = 30


def _parameterize_term(term):
    if isinstance(term, Parameter):
        return term
    if isinstance(term, Constant):
        return Parameter(f"p_{term.name}")
    return term


def _parameterize(formula: Formula) -> Formula:
    """Replace every constant with a like-named parameter."""
    if isinstance(formula, Atom):
        return Atom(formula.predicate, tuple(_parameterize_term(t) for t in formula.args))
    if isinstance(formula, Equals):
        return Equals(_parameterize_term(formula.left), _parameterize_term(formula.right))
    if isinstance(formula, Not):
        return Not(_parameterize(formula.operand))
    if isinstance(formula, And):
        return And(tuple(_parameterize(op) for op in formula.operands))
    if isinstance(formula, Or):
        return Or(tuple(_parameterize(op) for op in formula.operands))
    if isinstance(formula, Implies):
        return Implies(_parameterize(formula.antecedent), _parameterize(formula.consequent))
    if isinstance(formula, Iff):
        return Iff(_parameterize(formula.left), _parameterize(formula.right))
    if isinstance(formula, (Exists, Forall)):
        return type(formula)(formula.variables, _parameterize(formula.body))
    return formula


def _template_of(query: Query) -> tuple[Query, dict[str, str]]:
    template = query.with_formula(_parameterize(query.formula))
    binding = {name: name[2:] for name in query_parameters(template)}  # p_a -> a
    return template, binding


class TestPreparedEqualsAdhoc:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(database=cw_databases(), query=queries())
    def test_approx_route_byte_identical(self, database, query):
        template, binding = _template_of(query)
        service = QueryService(answer_cache_capacity=0)
        service.register("db", database)
        try:
            statement = service.prepare("db", query_to_text(template))
            prepared = service.execute_prepared(statement.statement_id, binding)
            adhoc = service.execute(QueryRequest("db", prepared.query))
            assert prepared.answers == adhoc.answers
            assert prepared.query == query_to_text(query)
        finally:
            service.close()

    @settings(max_examples=20, deadline=None)
    @given(database=cw_databases(max_constants=3, max_facts=4), query=queries())
    def test_exact_route_matches_tarskian_ground_truth(self, database, query):
        template, binding = _template_of(query)
        service = QueryService(answer_cache_capacity=0)
        service.register("db", database)
        try:
            statement = service.prepare("db", query_to_text(template), method="exact")
            prepared = service.execute_prepared(statement.statement_id, binding)
            truth = certain_answers(database, query)
            assert [list(row) for row in prepared.answers["exact"]] == answers_to_wire(truth)
        finally:
            service.close()

    @settings(max_examples=20, deadline=None)
    @given(database=cw_databases(max_constants=3), query=queries())
    def test_approx_route_matches_the_materialized_reference(self, database, query):
        template, binding = _template_of(query)
        service = QueryService(answer_cache_capacity=0)
        service.register("db", database)
        try:
            statement = service.prepare("db", query_to_text(template))
            prepared = service.execute_prepared(statement.statement_id, binding)
            truth = evaluate_query(materialized_ph2(database), rewrite_query(query))
            assert [list(row) for row in prepared.answers["approximate"]] == answers_to_wire(truth)
        finally:
            service.close()


def _reference(database, query) -> list:
    return answers_to_wire(evaluate_query(materialized_ph2(database), rewrite_query(query)))


class TestShapePlansMatchTheReference:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(query=queries())
    def test_lifted_text_renders_the_lifted_template(self, query):
        template, values = lift_constants(query)
        assert bind_query(template, values) == query
        assert lifted_text(query) == (query_to_text(template), values)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(database=cw_databases(max_constants=3), query=queries())
    def test_adhoc_route_matches_the_materialized_reference(self, database, query):
        service = QueryService(answer_cache_capacity=0)
        service.register("db", database)
        try:
            adhoc = service.execute(QueryRequest("db", query_to_text(query)))
            assert [list(row) for row in adhoc.answers["approximate"]] == _reference(database, query)
        finally:
            service.close()

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        database=cw_databases(max_constants=4),
        query=queries(),
        data=st.data(),
    )
    def test_a_second_binding_of_one_shape_is_a_plan_cache_hit(self, database, query, data):
        template, values = lift_constants(query)
        # Another injective binding over the database's constants lifts back
        # to the same shape: distinct parameters stay distinct constants.
        others = data.draw(st.permutations(database.constants))
        second = bind_query(template, {name: others[int(name) - 1] for name in values})
        service = QueryService(answer_cache_capacity=0)
        service.register("db", database)
        try:
            for index, bound in enumerate((query, second)):
                response = service.execute(QueryRequest("db", query_to_text(bound)))
                assert [list(row) for row in response.answers["approximate"]] == _reference(database, bound)
                assert service.stats().plan_cache["hits"] == index
            assert service.stats().plan_cache["size"] == 1
        finally:
            service.close()
