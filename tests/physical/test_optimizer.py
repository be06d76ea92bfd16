"""Unit and golden tests for the plan optimizer.

The golden tests snapshot ``plan_to_text`` before and after optimization so
rewrites stay reviewable as plan diffs: a change in optimizer behaviour must
show up here as an intentional snapshot update.
"""

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.logic.parser import parse_query
from repro.logic.vocabulary import Vocabulary
from repro.physical.algebra import execute, plan_to_text
from repro.physical.compiler import compile_query, evaluate_query_algebra
from repro.physical.database import PhysicalDatabase
from repro.physical.optimizer import optimize
from repro.physical.plan import (
    ActiveDomain,
    CrossProduct,
    Difference,
    EquiJoin,
    IndexScan,
    LiteralTable,
    NaturalJoin,
    Projection,
    ScanRelation,
    Selection,
    UnionAll,
)

EMPTY = LiteralTable(("v",), frozenset())


@pytest.fixture
def database():
    vocabulary = Vocabulary(("eng", "ada"), {"EMP_DEPT": 2, "DEPT_MGR": 2})
    return PhysicalDatabase(
        vocabulary,
        domain={"ada", "boris", "eng", "sales"},
        constants={"eng": "eng", "ada": "ada"},
        relations={
            "EMP_DEPT": {("ada", "eng"), ("boris", "eng")},
            "DEPT_MGR": {("eng", "ada"), ("sales", "boris")},
        },
    )


def _assert_equivalent(plan, database):
    """The optimized plan must return exactly the naive plan's table."""
    optimized = optimize(plan, database)
    naive = execute(plan, database, use_indexes=False)
    rewritten = execute(optimized, database)
    assert rewritten.columns == naive.columns
    assert rewritten.rows == naive.rows
    return optimized


class TestConstantFolding:
    def test_join_with_empty_side_is_empty(self, database):
        plan = NaturalJoin(ScanRelation("EMP_DEPT", ("a", "b")), LiteralTable(("b",), frozenset()))
        optimized = _assert_equivalent(plan, database)
        assert isinstance(optimized, LiteralTable)
        assert optimized.rows == frozenset()

    def test_union_with_empty_side_collapses(self, database):
        scan = ScanRelation("EMP_DEPT", ("a", "b"))
        optimized = _assert_equivalent(UnionAll(scan, LiteralTable(("a", "b"), frozenset())), database)
        assert optimized == scan

    def test_union_of_equal_sides_collapses(self, database):
        scan = ScanRelation("EMP_DEPT", ("a", "b"))
        assert _assert_equivalent(UnionAll(scan, scan), database) == scan

    def test_difference_of_equal_sides_is_empty(self, database):
        scan = ScanRelation("EMP_DEPT", ("a", "b"))
        optimized = _assert_equivalent(Difference(scan, scan), database)
        assert isinstance(optimized, LiteralTable) and not optimized.rows

    def test_identity_projection_removed(self, database):
        plan = Projection(ScanRelation("EMP_DEPT", ("a", "b")), ("a", "b"))
        assert _assert_equivalent(plan, database) == ScanRelation("EMP_DEPT", ("a", "b"))

    def test_true_literal_join_operand_removed(self, database):
        true_table = LiteralTable((), frozenset({()}))
        scan = ScanRelation("EMP_DEPT", ("a", "b"))
        assert _assert_equivalent(NaturalJoin(true_table, scan), database) == scan

    def test_structured_selection_over_literal_evaluates(self, database):
        literal = LiteralTable(("v",), frozenset({("ada",), ("eng",)}))
        plan = Selection(literal, None, "v='ada'", bindings=(("v", "ada"),))
        optimized = _assert_equivalent(plan, database)
        assert optimized == LiteralTable(("v",), frozenset({("ada",)}))


class TestSelectionPushdown:
    def test_binding_over_scan_becomes_index_scan(self, database):
        plan = Selection(
            ScanRelation("DEPT_MGR", ("d", "m")), None, "d='eng'", bindings=(("d", "eng"),)
        )
        optimized = _assert_equivalent(plan, database)
        assert optimized == IndexScan("DEPT_MGR", ("d", "m"), (("d", "eng"),))

    def test_contradictory_bindings_fold_to_empty(self, database):
        plan = Selection(
            ScanRelation("DEPT_MGR", ("d", "m")),
            None,
            "d='eng' & d='sales'",
            bindings=(("d", "eng"), ("d", "sales")),
        )
        optimized = _assert_equivalent(plan, database)
        assert isinstance(optimized, LiteralTable) and not optimized.rows

    def test_cross_equality_becomes_equi_join(self, database):
        plan = Selection(
            CrossProduct(ActiveDomain("x"), ActiveDomain("y")),
            None,
            "x = y",
            equalities=(("x", "y"),),
        )
        optimized = _assert_equivalent(plan, database)
        assert isinstance(optimized, EquiJoin)
        assert optimized.pairs == (("x", "y"),)

    def test_binding_on_active_domain_folds_to_literal(self, database):
        plan = Selection(ActiveDomain("x"), None, "x='ada'", bindings=(("x", "ada"),))
        optimized = _assert_equivalent(plan, database)
        assert optimized == LiteralTable(("x",), frozenset({("ada",)}))

    def test_selection_pushes_through_union(self, database):
        union = UnionAll(ScanRelation("EMP_DEPT", ("a", "b")), ScanRelation("DEPT_MGR", ("a", "b")))
        plan = Selection(union, None, "a='eng'", bindings=(("a", "eng"),))
        optimized = _assert_equivalent(plan, database)
        assert isinstance(optimized, UnionAll)
        assert isinstance(optimized.left, IndexScan)
        assert isinstance(optimized.right, IndexScan)

    def test_opaque_callable_selection_left_alone(self, database):
        plan = Selection(ScanRelation("EMP_DEPT", ("a", "b")), lambda row: row["a"] == "ada", "a=ada")
        optimized = _assert_equivalent(plan, database)
        assert isinstance(optimized, Selection)
        assert optimized.condition is not None

    def test_selection_on_missing_column_is_not_dropped(self, database):
        from repro.errors import EvaluationError

        join = NaturalJoin(ScanRelation("EMP_DEPT", ("a", "b")), ScanRelation("DEPT_MGR", ("b", "c")))
        plan = Selection(join, None, "typo='1'", bindings=(("typo", "1"),))
        optimized = optimize(plan, database)
        # The invalid predicate must survive so execution still raises, just
        # like the naive plan does — never silently return unfiltered rows.
        with pytest.raises(EvaluationError):
            execute(plan, database, use_indexes=False)
        with pytest.raises(EvaluationError):
            execute(optimized, database)

    def test_mixed_opaque_and_structured_selection_rejected(self, database):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            Selection(
                ScanRelation("EMP_DEPT", ("a", "b")),
                lambda row: True,
                "mixed",
                bindings=(("a", "ada"),),
            )


class TestJoinReordering:
    def test_reordered_chain_keeps_columns_and_rows(self, database):
        # Written in an order whose first two atoms are disconnected.
        query = parse_query("(x, z) . exists y. EMP_DEPT(x, y) & DEPT_MGR(y, z)")
        plan = compile_query(query, database)
        _assert_equivalent(plan, database)

    def test_greedy_order_starts_from_selective_leaf(self, database):
        big = ScanRelation("EMP_DEPT", ("a", "b"))
        small = IndexScan("DEPT_MGR", ("b", "c"), (("c", "ada"),))
        middle = ScanRelation("DEPT_MGR", ("b", "c"))
        plan = NaturalJoin(NaturalJoin(big, middle), small)
        optimized = _assert_equivalent(plan, database)
        text = plan_to_text(optimized)
        # The index scan is the cheapest leaf, so it must lead the join order.
        assert text.index("IndexScan") < text.index("Scan EMP_DEPT")


class TestToggle:
    def test_optimize_false_returns_the_naive_plan(self, ripper_cw):
        evaluator = ApproximateEvaluator(engine="algebra", optimize=False)
        storage = evaluator.storage(ripper_cw)
        query = parse_query("(x) . exists y. LONDONER(x) & ~MURDERER(y)")
        naive = compile_query(evaluator.rewrite(query), storage)
        assert evaluator.plan_on_storage(storage, query) == naive
        assert ApproximateEvaluator(engine="algebra").plan_on_storage(storage, query) != naive

    def test_retired_env_switch_changes_nothing(self, ripper_cw, monkeypatch):
        monkeypatch.setenv("REPRO_NO_OPTIMIZER", "1")
        evaluator = ApproximateEvaluator(engine="algebra")
        storage = evaluator.storage(ripper_cw)
        query = parse_query("(x) . exists y. LONDONER(x) & ~MURDERER(y)")
        naive = compile_query(evaluator.rewrite(query), storage)
        assert evaluator.plan_on_storage(storage, query) != naive

    def test_optimize_false_answers_like_the_optimizer(self, database):
        query = parse_query("(x, z) . exists y. EMP_DEPT(x, y) & DEPT_MGR(y, z)")
        naive = evaluate_query_algebra(database, query, optimize=False)
        assert naive == evaluate_query_algebra(database, query)


GOLDEN_INDEX_AND_JOIN = """\
Project(x)
  NaturalJoin
    Rename(__col0->x, __col1->y)
      Scan EMP_DEPT(__col0, __col1)
    Rename(__col0->y)
      Project(__col0)
        IndexScan DEPT_MGR(__col0, __col1; __col1='ada')"""

GOLDEN_EQUALITY = """\
NaturalJoin
  Rename(__col0->x, __col1->y)
    Scan EMP_DEPT(__col0, __col1)
  EquiJoin(x=y)
    ActiveDomain(x)
    ActiveDomain(y)"""

GOLDEN_DUPLICATE_DISJUNCT = """\
Rename(__col0->x)
  Project(__col0)
    IndexScan EMP_DEPT(__col0, __col1; __col1='eng')"""


class TestGoldenPlans:
    """plan_to_text snapshots: optimizer rewrites reviewable as plan diffs."""

    @pytest.mark.parametrize(
        "query_text, expected",
        [
            ("(x) . exists y. EMP_DEPT(x, y) & DEPT_MGR(y, 'ada')", GOLDEN_INDEX_AND_JOIN),
            ("(x, y) . EMP_DEPT(x, y) & x = y", GOLDEN_EQUALITY),
            ("(x) . EMP_DEPT(x, 'eng') | EMP_DEPT(x, 'eng')", GOLDEN_DUPLICATE_DISJUNCT),
        ],
        ids=["index-scan-and-join", "equality-to-equijoin", "duplicate-disjunct-dedup"],
    )
    def test_optimized_plan_snapshot(self, database, query_text, expected):
        query = parse_query(query_text)
        plan = compile_query(query, database)
        optimized = _assert_equivalent(plan, database)
        assert plan_to_text(optimized) == expected
