"""Tests for the cost-based engine dispatcher (``engine="auto"``)."""

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.approx.rewrite import rewrite_query
from repro.logic.parser import parse_query
from repro.logical.ph import ph2
from repro.physical.compiler import compile_query
from repro.physical.dispatch import choose_engine, prefer_tarskian, tarskian_cost
from repro.physical.optimizer import optimize
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


class TestCostModels:
    def test_tarskian_cost_grows_with_unrestricted_variables(self, storage):
        restricted = parse_query("(x) . EMP_DEPT(x, 'dept0')")
        unrestricted = parse_query("(x, y) . ~EMP_DEPT(x, y)")
        assert tarskian_cost(storage, unrestricted) > tarskian_cost(storage, restricted)

    def test_second_order_queries_always_go_tarskian(self, storage):
        from repro.logic.formulas import Atom, SecondOrderExists
        from repro.logic.queries import Query
        from repro.logic.terms import Variable

        evaluator = ApproximateEvaluator(engine="auto")
        x = Variable("x")
        query = Query((x,), SecondOrderExists("Q", 1, Atom("Q", (x,))))
        assert evaluator.resolve_engine(storage, query) == "tarski"
        assert evaluator.plan_on_storage(storage, query) is None

    def test_join_heavy_queries_go_to_the_algebra_engine(self):
        # A large instance with a deep join chain: enumeration is a product
        # of candidate sets, the optimized plan is near-linear.
        storage = ph2(
            skewed_star_database(
                n_entities=90, n_links=30, n_hubs=3, n_targets=15, facts_per_entity=6, n_hot=3, seed=5
            )
        )
        evaluator = ApproximateEvaluator(engine="auto")
        for name, query in skewed_adaptive_workload():
            assert evaluator.resolve_engine(storage, query) == "algebra", name
            assert evaluator.plan_on_storage(storage, query) is not None, name

    def test_choose_engine_matches_prefer_tarskian(self, storage):
        query = parse_query("(x) . EMP_DEPT(x, 'dept0')")
        rewritten = rewrite_query(query, "direct")
        plan = optimize(compile_query(rewritten, storage), storage)
        expected = "tarski" if prefer_tarskian(storage, rewritten, plan) else "algebra"
        assert choose_engine(storage, rewritten, plan) == expected
        assert choose_engine(storage, rewritten, None) == "tarski"


class TestExtensionAtomPricing:
    """One ``alpha_P`` check is |I(P)| disagreement tests, not one lookup."""

    @pytest.mark.parametrize(
        "text",
        [
            "(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, 'emp7') & EMP_SAL('emp17', 'low')",
            "(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, 'mgr_null11')",
            "(m) . ~DEPT_MGR('dept3', m) & EMP_SAL('emp17', 'low')",
            "(m) . ~DEPT_MGR('dept3', m)",
        ],
    )
    def test_the_benchmark_negation_shapes_stay_on_the_algebra_engine(self, text):
        storage = ph2(employee_database(300, seed=21))
        rewritten = rewrite_query(parse_query(text), "direct")
        plan = optimize(compile_query(rewritten, storage), storage)
        assert choose_engine(storage, rewritten, plan) == "algebra"

    def test_cost_scales_with_the_stored_relation_and_the_arity(self, storage):
        unary = rewrite_query(parse_query("() . ~EMP_DEPT('emp1', 'dept0')"), "direct")
        stored = len(storage.relation("EMP_DEPT"))
        assert tarskian_cost(storage, unary) == 2.0 * stored

    def test_a_handful_of_stored_tuples_may_still_go_tarskian(self):
        tiny = ph2(employee_database(3, seed=2))
        rewritten = rewrite_query(parse_query("(m) . ~DEPT_MGR('dept0', m)"), "direct")
        plan = optimize(compile_query(rewritten, tiny), tiny)
        assert len(tiny.relation("DEPT_MGR")) <= 3
        assert choose_engine(tiny, rewritten, plan) == "tarski"


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
        from repro.errors import UnsupportedFormulaError
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
