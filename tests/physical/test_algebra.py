"""Unit tests for the relational-algebra plan executor."""

import gc
import weakref

import pytest

from repro.errors import EvaluationError
from repro.logic.terms import Parameter
from repro.logic.vocabulary import Vocabulary
from repro.physical import algebra
from repro.physical.algebra import execute, plan_size, plan_to_text
from repro.physical.database import PhysicalDatabase
from repro.physical.plan import (
    ActiveDomain,
    CrossProduct,
    Difference,
    LiteralTable,
    NaturalJoin,
    Projection,
    RenameColumns,
    ScanRelation,
    Selection,
    Table,
    UnionAll,
    substitute_plan_parameters,
)


@pytest.fixture
def database():
    vocabulary = Vocabulary(("eng", "ada"), {"EMP_DEPT": 2, "DEPT_MGR": 2})
    return PhysicalDatabase(
        vocabulary,
        domain={"ada", "boris", "eng", "sales"},
        constants={"eng": "eng", "ada": "ada"},
        relations={
            "EMP_DEPT": {("ada", "eng"), ("boris", "eng")},
            "DEPT_MGR": {("eng", "ada"), ("sales", "ada")},
        },
    )


class TestTable:
    def test_row_width_checked(self):
        with pytest.raises(EvaluationError):
            Table(("a", "b"), frozenset({("x",)}))

    def test_project_reorders_and_deduplicates(self):
        table = Table(("a", "b"), frozenset({("1", "2"), ("3", "2")}))
        projected = table.project(("b",))
        assert projected.columns == ("b",)
        assert projected.rows == frozenset({("2",)})

    def test_as_dicts(self):
        table = Table(("a",), frozenset({("1",)}))
        assert table.as_dicts() == [{"a": "1"}]


class TestOperators:
    def test_scan(self, database):
        table = execute(ScanRelation("EMP_DEPT", ("emp", "dept")), database)
        assert table.columns == ("emp", "dept")
        assert ("ada", "eng") in table.rows

    def test_scan_arity_mismatch(self, database):
        with pytest.raises(EvaluationError):
            execute(ScanRelation("EMP_DEPT", ("emp",)), database)

    def test_active_domain(self, database):
        table = execute(ActiveDomain("v"), database)
        assert table.rows == frozenset({(value,) for value in database.active_domain()})

    def test_selection(self, database):
        plan = Selection(ScanRelation("EMP_DEPT", ("emp", "dept")), lambda row: row["emp"] == "ada", "emp=ada")
        table = execute(plan, database)
        assert table.rows == frozenset({("ada", "eng")})

    def test_projection(self, database):
        plan = Projection(ScanRelation("EMP_DEPT", ("emp", "dept")), ("dept",))
        assert execute(plan, database).rows == frozenset({("eng",)})

    def test_rename(self, database):
        plan = RenameColumns(ScanRelation("EMP_DEPT", ("emp", "dept")), (("emp", "person"),))
        assert execute(plan, database).columns == ("person", "dept")

    def test_rename_collision_rejected(self, database):
        plan = RenameColumns(ScanRelation("EMP_DEPT", ("emp", "dept")), (("emp", "dept"),))
        with pytest.raises(EvaluationError):
            execute(plan, database)

    def test_natural_join_on_shared_column(self, database):
        left = ScanRelation("EMP_DEPT", ("emp", "dept"))
        right = ScanRelation("DEPT_MGR", ("dept", "mgr"))
        table = execute(NaturalJoin(left, right), database)
        assert table.columns == ("emp", "dept", "mgr")
        assert ("ada", "eng", "ada") in table.rows
        assert ("boris", "eng", "ada") in table.rows
        assert len(table) == 2

    def test_natural_join_without_shared_columns_is_product(self, database):
        left = ScanRelation("EMP_DEPT", ("emp", "dept"))
        right = ScanRelation("DEPT_MGR", ("d2", "mgr"))
        table = execute(NaturalJoin(left, right), database)
        assert len(table) == 4

    def test_cross_product_requires_disjoint_columns(self, database):
        plan = CrossProduct(ScanRelation("EMP_DEPT", ("emp", "dept")), ScanRelation("DEPT_MGR", ("dept", "mgr")))
        with pytest.raises(EvaluationError):
            execute(plan, database)

    def test_union_aligns_columns(self, database):
        left = ScanRelation("EMP_DEPT", ("a", "b"))
        right = RenameColumns(ScanRelation("DEPT_MGR", ("b", "a")), ())
        table = execute(UnionAll(left, right), database)
        assert table.columns == ("a", "b")
        assert ("ada", "eng") in table.rows   # from EMP_DEPT
        assert ("ada", "eng") in table.rows
        assert ("ada", "sales") in table.rows  # DEPT_MGR(sales, ada) reordered

    def test_union_rejects_different_column_sets(self, database):
        left = ScanRelation("EMP_DEPT", ("a", "b"))
        right = ScanRelation("DEPT_MGR", ("c", "d"))
        with pytest.raises(EvaluationError):
            execute(UnionAll(left, right), database)

    def test_difference(self, database):
        everything = CrossProduct(ActiveDomain("a"), ActiveDomain("b"))
        some = ScanRelation("EMP_DEPT", ("a", "b"))
        table = execute(Difference(everything, some), database)
        assert ("ada", "eng") not in table.rows
        assert ("eng", "ada") in table.rows

    def test_literal_table(self, database):
        plan = LiteralTable(("k",), frozenset({("v",)}))
        assert execute(plan, database).rows == frozenset({("v",)})


class TestPlanUtilities:
    def test_plan_size(self, database):
        plan = Projection(NaturalJoin(ScanRelation("EMP_DEPT", ("e", "d")), ScanRelation("DEPT_MGR", ("d", "m"))), ("e",))
        assert plan_size(plan) == 4

    def test_plan_to_text_mentions_operators(self):
        plan = Projection(ScanRelation("EMP_DEPT", ("e", "d")), ("e",))
        text = plan_to_text(plan)
        assert "Project" in text and "Scan EMP_DEPT" in text


class TestColumnCache:
    @pytest.mark.parametrize("vectorize", [True, False])
    def test_a_substituted_plan_dies_after_its_execution(self, database, vectorize):
        template = Projection(
            Selection(ScanRelation("EMP_DEPT", ("e", "d")), bindings=(("d", Parameter("dept")),)), ("e",)
        )
        plan = substitute_plan_parameters(template, {"dept": "eng"})
        assert execute(plan, database, vectorize=vectorize).rows == frozenset({("ada",), ("boris",)})
        alive = weakref.ref(plan)
        del plan
        gc.collect()
        assert alive() is None, "the executed plan is still referenced after its execution"

    def test_a_plan_run_against_another_database_is_checked_again(self, database):
        plan = ScanRelation("EMP_DEPT", ("emp", "dept"))
        execute(plan, database)
        wider = PhysicalDatabase(
            Vocabulary((), {"EMP_DEPT": 3}), domain={"a"}, constants={}, relations={"EMP_DEPT": {("a", "a", "a")}}
        )
        with pytest.raises(EvaluationError, match="arity 3"):
            execute(plan, wider)

    def test_a_plan_rerun_on_the_same_database_is_resolved_once(self, database, monkeypatch):
        resolved = []
        resolve = algebra._ExecutionContext._resolve_columns

        def counting(context, plan):
            resolved.append(plan)
            return resolve(context, plan)

        monkeypatch.setattr(algebra._ExecutionContext, "_resolve_columns", counting)
        plan = Projection(ScanRelation("EMP_DEPT", ("e", "d")), ("e",))
        first = execute(plan, database)
        after_first = len(resolved)
        assert after_first > 0
        assert execute(plan, database) == first
        assert len(resolved) == after_first, "a re-run resolved its columns again"

    def test_a_failed_resolution_is_not_cached(self, database):
        plan = ScanRelation("EMP_DEPT", ("emp",))
        for __ in range(2):
            with pytest.raises(EvaluationError, match="arity 2"):
                execute(plan, database)
        narrow = PhysicalDatabase(
            Vocabulary((), {"EMP_DEPT": 1}), domain={"a"}, constants={}, relations={"EMP_DEPT": {("a",)}}
        )
        assert execute(plan, narrow).rows == frozenset({("a",)})
