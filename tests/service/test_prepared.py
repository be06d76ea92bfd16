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
from repro.service import QueryService, QueryRequest
from repro.service.protocol import ErrorResponse
from repro.workloads.generators import employee_database
from repro.workloads.scenarios import employee_intro_scenario, jack_the_ripper_database


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
            "emp", "(x) . EMP_DEPT($k, x)", method="exact", engine="tarski", virtual_ne=True
        )
        assert (statement.engine, statement.virtual_ne) == ("algebra", False)

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

    @pytest.mark.parametrize("virtual_ne", [False, True])
    def test_negated_template_runs_on_one_generic_plan(self, virtual_ne):
        """E21's ``neg_members`` shape, over every employee and null manager."""
        from repro.approx.evaluator import ApproximateEvaluator
        from repro.logic.parser import parse_query

        database = employee_database(40, seed=21)
        employees = sorted({row[0] for row in database.facts_for("EMP_DEPT")})
        nulls = sorted({row[1] for row in database.facts_for("DEPT_MGR")} - set(employees))
        assert nulls
        service = QueryService(answer_cache_capacity=0)
        service.register("emp", database)
        oracle = ApproximateEvaluator(engine="tarski", virtual_ne=virtual_ne)
        try:
            statement = service.prepare(
                "emp", "(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, $k)", virtual_ne=virtual_ne
            )
            storage = service.entry("emp").storage(virtual_ne)
            for key in employees + nulls:
                prepared = service.execute_prepared(statement.statement_id, {"k": key})
                adhoc = service.execute(QueryRequest("emp", prepared.query, virtual_ne=virtual_ne))
                assert prepared.answers == adhoc.answers, key
                truth = oracle.answers_on_storage(storage, parse_query(prepared.query))
                assert prepared.answer_set("approximate") == truth, key
            counters = service.stats().prepared
            assert counters["executions"] == len(employees) + len(nulls)
            assert counters["generic_plans"] == counters["executions"]
            assert counters["custom_plans"] == 0
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
        assert prepared["custom_plans"] == 0

    def test_divergent_observed_statistics_trigger_custom_plans(self):
        # Preload observed cardinalities for the *bound* plan's fingerprints
        # so the bound cost diverges >= the feedback threshold from the
        # generic estimate: the next execution must compile a custom plan.
        from repro.approx.evaluator import ApproximateEvaluator
        from repro.logic.parser import parse_query
        from repro.logic.template import bind_query
        from repro.physical.plan import plan_fingerprint
        from repro.physical.statistics import statistics_for

        database = employee_database(60, seed=3)
        service = QueryService(answer_cache_capacity=0)
        service.register("emp", database)
        try:
            template = "(y, s) . exists d. EMP_DEPT($e, d) & EMP_DEPT(y, d) & EMP_SAL(y, s)"
            statement = service.prepare("emp", template)
            employee = sorted({row[0] for row in database.facts_for("EMP_DEPT")})[0]
            service.execute_prepared(statement.statement_id, {"e": employee})
            assert service.stats().prepared["generic_plans"] == 1

            storage = service.entry("emp").storage(False)
            evaluator = ApproximateEvaluator(engine="algebra")
            bound = bind_query(parse_query(template), {"e": employee})
            bound_plan = evaluator.plan_on_storage(storage, bound)
            fingerprint = plan_fingerprint(bound_plan)
            assert fingerprint is not None
            # An absurdly large observed cardinality for the whole bound
            # plan: the binding provably behaves nothing like the template.
            statistics_for(storage).record_observed(fingerprint, 10_000_000)

            service.execute_prepared(statement.statement_id, {"e": employee})
            prepared = service.stats().prepared
            assert prepared["custom_plans"] == 1, prepared
        finally:
            service.close()
