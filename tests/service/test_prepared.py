"""Prepared statements on the in-process :class:`QueryService`."""

from __future__ import annotations

import pytest

from repro.errors import (
    DatabaseError,
    ServiceError,
    UnboundParameterError,
    UnknownDatabaseError,
    UnknownStatementError,
)
from repro.logic.parser import parse_query
from repro.logic.printer import query_to_text
from repro.logic.template import bind_query
from repro.logical.exact import certain_answers
from repro.service import QueryService, QueryRequest
from repro.service.protocol import ErrorResponse, answers_from_wire
from repro.workloads.generators import employee_database
from repro.workloads.scenarios import employee_intro_scenario, jack_the_ripper_database
from repro.workloads.traffic import SWEEP_TEMPLATE


@pytest.fixture()
def service():
    service = QueryService()
    service.register("emp", employee_intro_scenario().database)
    yield service
    service.close()


class TestPrepare:
    def test_prepare_returns_statement_with_parameters(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        assert statement.parameters == ("k",)
        assert statement.arity == 1
        assert "$k" in statement.template

    def test_prepare_canonicalizes_and_deduplicates(self, service):
        first = service.prepare("emp", "(x) . EMP_DEPT($k,   x)")
        second = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        assert first.statement_id == second.statement_id
        assert service.stats().prepared["templates"] == 1

    def test_prepare_unknown_database_fails_fast(self, service):
        with pytest.raises(UnknownDatabaseError):
            service.prepare("atlantis", "(x) . P($k, x)")

    def test_prepare_validates_options(self, service):
        with pytest.raises(ServiceError, match="unknown method"):
            service.prepare("emp", "(x) . EMP_DEPT($k, x)", method="psychic")

    def test_exact_statements_normalize_engine(self, service):
        statement = service.prepare(
            "emp", "(x) . EMP_DEPT($k, x)", method="exact", engine="tarski"
        )
        assert statement.engine == "algebra"

    def test_parameter_free_queries_can_be_prepared(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT('ada', x)")
        assert statement.parameters == ()
        response = service.execute_prepared(statement.statement_id)
        assert response.answers["approximate"]

    def test_deallocate_and_unknown_statement(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        service.deallocate(statement.statement_id)
        with pytest.raises(UnknownStatementError):
            service.execute_prepared(statement.statement_id, {"k": "ada"})

    def test_unregister_drops_statements(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        service.unregister("emp")
        with pytest.raises(UnknownStatementError):
            service.statement(statement.statement_id)


class TestExecute:
    def test_answers_byte_identical_to_adhoc(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        prepared = service.execute_prepared(statement.statement_id, {"k": "ada"})
        adhoc = service.execute(QueryRequest("emp", prepared.query))
        assert prepared.answers == adhoc.answers
        assert prepared.query == "(x) . EMP_DEPT('ada', x)"

    @pytest.mark.parametrize("engine", ["algebra", "tarski", "auto"])
    def test_every_engine_agrees(self, service, engine):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)", engine=engine)
        response = service.execute_prepared(statement.statement_id, {"k": "ada"})
        assert response.answers["approximate"] == (("eng",),)

    def test_method_both_checks_soundness(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)", method="both")
        response = service.execute_prepared(statement.statement_id, {"k": "ada"})
        assert response.complete is True
        assert response.answers["approximate"] == response.answers["exact"]

    def test_negated_template_on_a_boolean_query(self):
        # The rewrite turns ~MURDERER($who) into an alpha_P atom over a
        # parameter; it plans like any other template (a binding on PE).
        service = QueryService()
        service.register("ripper", jack_the_ripper_database())
        try:
            statement = service.prepare("ripper", "() . ~MURDERER($who)")
            prepared = service.execute_prepared(statement.statement_id, {"who": "john_watson"})
            adhoc = service.execute(QueryRequest("ripper", prepared.query))
            assert prepared.answers == adhoc.answers
            assert service.stats().prepared["generic_plans"] == 1
        finally:
            service.close()

    def test_negated_template_runs_on_one_generic_plan(self):
        """E21's ``neg_members`` shape, over every employee and null manager."""
        from repro.approx.evaluator import ApproximateEvaluator
        from repro.logic.parser import parse_query
        from tests.property.strategies import materialized_ph2

        database = employee_database(40, seed=21)
        employees = sorted({row[0] for row in database.facts_for("EMP_DEPT")})
        nulls = sorted({row[1] for row in database.facts_for("DEPT_MGR")} - set(employees))
        assert nulls
        service = QueryService(answer_cache_capacity=0)
        service.register("emp", database)
        oracle = ApproximateEvaluator(engine="tarski")
        try:
            statement = service.prepare("emp", "(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, $k)")
            storage = materialized_ph2(database)
            for key in employees + nulls:
                prepared = service.execute_prepared(statement.statement_id, {"k": key})
                adhoc = service.execute(QueryRequest("emp", prepared.query))
                assert prepared.answers == adhoc.answers, key
                truth = oracle.answers_on_storage(storage, parse_query(prepared.query))
                assert prepared.answer_set("approximate") == truth, key
            counters = service.stats().prepared
            assert counters["executions"] == len(employees) + len(nulls)
            assert counters["generic_plans"] == counters["executions"]
        finally:
            service.close()

    def test_parameter_equality_templates(self, service):
        statement = service.prepare("emp", "() . $a = $b")
        yes = service.execute_prepared(statement.statement_id, {"a": "ada", "b": "ada"})
        no = service.execute_prepared(statement.statement_id, {"a": "ada", "b": "boris"})
        assert yes.answers["approximate"] == ((),)
        assert no.answers["approximate"] == ()

    def test_missing_parameter_raises(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        with pytest.raises(UnboundParameterError):
            service.execute_prepared(statement.statement_id, {})

    def test_binding_to_unknown_constant_fails_like_adhoc(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        with pytest.raises(DatabaseError, match="unknown constant"):
            service.execute_prepared(statement.statement_id, {"k": "nobody-here"})
        with pytest.raises(DatabaseError, match="unknown constant"):
            service.execute(QueryRequest("emp", "(x) . EMP_DEPT('nobody-here', x)"))

    def test_prepared_and_adhoc_share_the_answer_cache(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        prepared = service.execute_prepared(statement.statement_id, {"k": "ada"})
        assert not prepared.cached
        adhoc = service.execute(QueryRequest("emp", prepared.query))
        assert adhoc.cached  # same key: computed once by the prepared path
        again = service.execute_prepared(statement.statement_id, {"k": "ada"})
        assert again.cached


class TestExecuteMany:
    def test_positional_and_deduplicated(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        bindings = [{"k": "ada"}, {"k": "boris"}, {"k": "ada"}]
        batch = service.execute_prepared_many(statement.statement_id, bindings)
        assert (batch.total, batch.unique, batch.deduplicated) == (3, 2, 1)
        assert batch.responses[0].answers == batch.responses[2].answers

    def test_failures_stay_local(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        batch = service.execute_prepared_many(
            statement.statement_id, [{"k": "ada"}, {}, {"k": "boris"}]
        )
        assert isinstance(batch.responses[1], ErrorResponse)
        assert batch.responses[1].code == "unbound_parameter"
        assert not isinstance(batch.responses[0], ErrorResponse)
        assert not isinstance(batch.responses[2], ErrorResponse)

    def test_sweep_template_matches_adhoc_and_certain_answers(self):
        """The join-heavy sweep over every employee, on the ``auto`` engine:
        each prepared answer is byte-identical to the ad-hoc request for the
        bound text, and (a positive query, so the approximation is complete
        by Theorem 13) equal to the exact certain answers."""
        database = employee_database(12, seed=11)
        adhoc, prepared = QueryService(answer_cache_capacity=0), QueryService(answer_cache_capacity=0)
        adhoc.register("emp", database)
        prepared.register("emp", database)
        template = parse_query(SWEEP_TEMPLATE)
        employees = sorted({row[0] for row in database.facts_for("EMP_DEPT")})
        bindings = [{"e": employee} for employee in employees]
        try:
            statement = prepared.prepare("emp", SWEEP_TEMPLATE, engine="auto")
            batch = prepared.execute_prepared_many(statement.statement_id, bindings, max_workers=1)
            for binding, response in zip(bindings, batch.responses):
                text = query_to_text(bind_query(template, binding))
                assert response.query == text
                assert response.answers == adhoc.query("emp", text, engine="auto").answers, binding
            for binding, response in list(zip(bindings, batch.responses))[:3]:
                exact = certain_answers(database, bind_query(template, binding))
                assert answers_from_wire(response.answers["approximate"]) == exact, binding
        finally:
            adhoc.close()
            prepared.close()

    def test_empty_sweep(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        batch = service.execute_prepared_many(statement.statement_id, [])
        assert batch.total == 0


class TestCountersAndPlanChoice:
    def test_stats_counters_move(self, service):
        statement = service.prepare("emp", "(x) . EMP_DEPT($k, x)")
        service.execute_prepared(statement.statement_id, {"k": "ada"})
        service.execute_prepared(statement.statement_id, {"k": "boris"})
        prepared = service.stats().prepared
        assert prepared["templates"] == 1
        assert prepared["statements"] == 1
        assert prepared["executions"] == 2
        assert prepared["generic_plans"] == 2
