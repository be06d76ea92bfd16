"""Tests for ``engine="auto"``: the engine is chosen by capability."""

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.approx.rewrite import rewrite_query
from repro.errors import UnsupportedFormulaError
from repro.logic.parser import parse_query
from repro.logic.template import lifted_text
from repro.logical.ph import ph2
from repro.physical.dispatch import choose_engine
from repro.physical.plan import PlanNode
from repro.service.engine import QueryService
from repro.workloads.generators import (
    employee_database,
    random_positive_query,
    skewed_adaptive_workload,
    skewed_star_database,
    EMPLOYEE_PREDICATES,
)


@pytest.fixture(scope="module")
def storage():
    return ph2(employee_database(40, seed=21))


class TestCapabilityRule:
    """``auto`` is algebra for first-order rewrites, Tarski for second order."""

    @pytest.mark.parametrize(
        "size, seed, text",
        [
            # The inputs the retired cost model sent to Tarskian enumeration.
            (3, 2, "(m) . ~DEPT_MGR('dept0', m)"),
            (12, 4, "(x, y) . ~EMP_DEPT(x, y)"),
        ],
    )
    def test_auto_caches_the_algebra_plan(self, size, seed, text):
        service = QueryService(answer_cache_capacity=0)
        entry = service.register("emp", employee_database(size, seed=seed))
        auto = service.query("emp", text, engine="auto")
        algebra = service.query("emp", text, engine="algebra")
        tarski = service.query("emp", text, engine="tarski")
        assert auto.answers == algebra.answers == tarski.answers
        shape, __ = lifted_text(service._parse(text))
        auto_plan = service._plans.get((entry.fingerprint, shape, "auto"))
        assert isinstance(auto_plan, PlanNode)
        assert auto_plan == service._plans.get((entry.fingerprint, shape, "algebra"))

    @pytest.mark.parametrize(
        "text",
        [
            "(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, 'emp7') & EMP_SAL('emp17', 'low')",
            "(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, 'mgr_null11')",
            "(m) . ~DEPT_MGR('dept3', m) & EMP_SAL('emp17', 'low')",
            "(m) . ~DEPT_MGR('dept3', m)",
        ],
    )
    def test_first_order_rewrites_choose_the_algebra_engine(self, text):
        storage = ph2(employee_database(300, seed=21))
        query = parse_query(text)
        plan = ApproximateEvaluator(engine="auto").plan_on_storage(storage, query)
        assert plan == ApproximateEvaluator(engine="algebra").plan_on_storage(storage, query)
        assert choose_engine(storage, rewrite_query(query, "direct"), plan) == "algebra"

    def test_join_heavy_queries_plan_on_the_algebra_engine(self):
        storage = ph2(
            skewed_star_database(
                n_entities=90, n_links=30, n_hubs=3, n_targets=15, facts_per_entity=6, n_hot=3, seed=5
            )
        )
        evaluator = ApproximateEvaluator(engine="auto")
        for name, query in skewed_adaptive_workload():
            assert evaluator.plan_on_storage(storage, query) is not None, name

    @pytest.mark.parametrize(
        "size, seed, text",
        [
            (3, 2, "(m) . ~DEPT_MGR('dept0', m)"),
            (12, 4, "(x, y) . ~EMP_DEPT(x, y)"),
        ],
    )
    def test_auto_never_enumerates_a_first_order_rewrite(self, size, seed, text, monkeypatch):
        storage = ph2(employee_database(size, seed=seed))
        query = parse_query(text)
        expected = ApproximateEvaluator(engine="tarski").answers_on_storage(storage, query)

        def enumerate_(*args, **kwargs):
            raise AssertionError("auto evaluated a first-order rewrite by Tarskian enumeration")

        monkeypatch.setattr("repro.approx.evaluator.evaluate_query", enumerate_)
        assert ApproximateEvaluator(engine="auto").answers_on_storage(storage, query) == expected

    def test_second_order_queries_go_tarskian(self, storage):
        from repro.logic.formulas import Atom, SecondOrderExists
        from repro.logic.queries import Query
        from repro.logic.terms import Variable

        x = Variable("x")
        query = Query((x,), SecondOrderExists("Q", 1, Atom("Q", (x,))))
        assert ApproximateEvaluator(engine="auto").plan_on_storage(storage, query) is None
        assert choose_engine(storage, rewrite_query(query, "direct"), None) == "tarski"
        with pytest.raises(UnsupportedFormulaError):
            ApproximateEvaluator(engine="algebra").answers_on_storage(storage, query)


class TestAutoAnswers:
    def test_auto_agrees_with_both_engines_on_random_positive_queries(self, storage):
        database = employee_database(12, seed=9)
        small = ph2(database)
        for seed in range(12):
            query = random_positive_query(
                EMPLOYEE_PREDICATES, constants=("dept0", "high"), arity=1, depth=2, seed=seed
            )
            auto = ApproximateEvaluator(engine="auto").answers_on_storage(small, query)
            tarski = ApproximateEvaluator(engine="tarski").answers_on_storage(small, query)
            algebra = ApproximateEvaluator(engine="algebra").answers_on_storage(small, query)
            assert auto == tarski == algebra, f"engines disagree on seed {seed}"

    def test_auto_handles_second_order_where_algebra_cannot(self, storage):
        from repro.logic.formulas import Atom, SecondOrderExists
        from repro.logic.queries import Query
        from repro.logic.terms import Constant

        tiny = ph2(employee_database(3, seed=2))
        query = Query((), SecondOrderExists("Q", 1, Atom("Q", (Constant("emp0"),))))
        auto = ApproximateEvaluator(engine="auto").answers_on_storage(tiny, query)
        tarski = ApproximateEvaluator(engine="tarski").answers_on_storage(tiny, query)
        assert auto == tarski
        with pytest.raises(UnsupportedFormulaError):
            ApproximateEvaluator(engine="algebra").answers_on_storage(tiny, query)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ApproximateEvaluator(engine="magic")
