"""Unit tests for the vectorized column-batch executor.

Two contracts are under test.  Answers equal those of the tuple-at-a-time
reference executor of :mod:`repro.physical.algebra` on every operator at
every batch size.  And observing an execution does not change it: under no
observer, a resource account, a profiler or both, every plan gives the same
answers through the same sequence of index calls (projection fusion, rename
look-through, the columnar stored caches, parts-mode probes and the
shared-subplan memo all run watched or not), and a profiler leaves the
account's bill unchanged.
"""

from contextlib import nullcontext

import pytest

from repro.errors import EvaluationError
from repro.logic.vocabulary import Vocabulary
from repro.observability.accounting import ResourceAccount, activate
from repro.observability.explain import PlanProfiler
from repro.physical.algebra import execute, node_label
from repro.physical.batch import DEFAULT_BATCH_SIZE, ColumnBatch, execute_batched
from repro.physical.database import PhysicalDatabase
from repro.physical.plan import (
    ActiveDomain,
    AntiJoin,
    CrossProduct,
    Difference,
    EquiJoin,
    IndexScan,
    LiteralTable,
    NaturalJoin,
    Projection,
    RenameColumns,
    ScanRelation,
    Selection,
    SemiJoin,
    UnionAll,
)

BATCH_SIZES = (1, 7, 1024)
OBSERVERS = ("none", "account", "profiler", "both")


@pytest.fixture
def database():
    vocabulary = Vocabulary(("eng",), {"EMP_DEPT": 2, "DEPT_MGR": 2, "SALARY": 2})
    return PhysicalDatabase(
        vocabulary,
        domain={"ada", "boris", "carol", "dan", "eng", "sales", "ops", "high", "low"},
        constants={"eng": "eng"},
        relations={
            # Duplicate dept keys (eng twice) so single-column builds over
            # EMP_DEPT are non-unique — the parts-mode probe layout.
            "EMP_DEPT": {
                ("ada", "eng"),
                ("boris", "eng"),
                ("carol", "sales"),
                ("dan", "ops"),
            },
            # Unique keys per dept — the unique int-bucket fast path.
            "DEPT_MGR": {("eng", "ada"), ("sales", "carol"), ("ops", "dan")},
            "SALARY": {("ada", "high"), ("boris", "low"), ("carol", "high")},
        },
    )


def scan(relation: str, *columns: str) -> ScanRelation:
    return ScanRelation(relation, columns)


PLANS = {
    "scan": scan("EMP_DEPT", "emp", "dept"),
    "index_scan": IndexScan("EMP_DEPT", ("emp", "dept"), (("dept", "eng"),)),
    "active_domain": ActiveDomain("v"),
    "literal": LiteralTable(("a",), frozenset({("x",), ("y",)})),
    "true_relation": LiteralTable((), frozenset({()})),
    "empty": LiteralTable(("a",), frozenset()),
    "selection_binding": Selection(scan("EMP_DEPT", "emp", "dept"), bindings=(("dept", "eng"),)),
    "selection_equality": Selection(
        RenameColumns(scan("DEPT_MGR", "dept", "mgr"), (("mgr", "dept2"),)),
        equalities=(("dept", "dept2"),),
    ),
    "selection_opaque": Selection(
        scan("EMP_DEPT", "emp", "dept"), lambda row: row["emp"] < row["dept"], "emp<dept"
    ),
    "selection_stacked": Selection(
        Selection(scan("SALARY", "emp", "level"), bindings=(("level", "high"),)),
        bindings=(("emp", "ada"),),
    ),
    "projection": Projection(scan("EMP_DEPT", "emp", "dept"), ("dept",)),
    "projection_to_zero_columns": Projection(scan("EMP_DEPT", "emp", "dept"), ()),
    "rename": RenameColumns(scan("EMP_DEPT", "emp", "dept"), (("emp", "person"),)),
    # Build side (right) has unique keys: int-bucket probe.
    "join_unique_build": NaturalJoin(
        scan("EMP_DEPT", "emp", "dept"), scan("DEPT_MGR", "dept", "mgr")
    ),
    # Build side has duplicate keys: parts-mode probe over the stored cache.
    "join_duplicate_build": NaturalJoin(
        scan("DEPT_MGR", "dept", "mgr"), scan("EMP_DEPT", "emp", "dept")
    ),
    # Rename on the build side: the join looks through it to the stored index.
    "join_renamed_build": NaturalJoin(
        scan("EMP_DEPT", "emp", "dept"),
        RenameColumns(scan("DEPT_MGR", "d", "mgr"), (("d", "dept"),)),
    ),
    # A column-dropping projection probing a duplicate-key build: the
    # probe side's duplicate ("eng",) row is probed once.
    "join_distinct_probe": NaturalJoin(
        Projection(scan("EMP_DEPT", "emp", "dept"), ("dept",)),
        scan("EMP_DEPT", "peer", "dept"),
    ),
    "join_no_shared_columns": NaturalJoin(
        scan("DEPT_MGR", "dept", "mgr"), LiteralTable(("flag",), frozenset({("on",)}))
    ),
    "equi_join": EquiJoin(
        scan("EMP_DEPT", "emp", "dept"),
        scan("DEPT_MGR", "d", "mgr"),
        (("dept", "d"),),
    ),
    "equi_join_no_pairs": EquiJoin(
        scan("DEPT_MGR", "dept", "mgr"), LiteralTable(("flag",), frozenset({("on",)})), ()
    ),
    "semi_join": SemiJoin(
        scan("EMP_DEPT", "emp", "dept"),
        Projection(scan("DEPT_MGR", "dept", "mgr"), ("dept",)),
        (("dept", "dept"),),
    ),
    "anti_join": AntiJoin(
        scan("EMP_DEPT", "emp", "dept"),
        Projection(scan("DEPT_MGR", "dept", "mgr"), ("dept",)),
        (("dept", "dept"),),
    ),
    "difference": Difference(
        Projection(scan("EMP_DEPT", "emp", "dept"), ("dept",)),
        Projection(scan("DEPT_MGR", "dept", "mgr"), ("dept",)),
    ),
    "union_all": UnionAll(
        Projection(scan("EMP_DEPT", "emp", "dept"), ("dept",)),
        Projection(scan("DEPT_MGR", "dept", "mgr"), ("dept",)),
    ),
    "cross_product": CrossProduct(
        scan("DEPT_MGR", "dept", "mgr"), LiteralTable(("flag",), frozenset({("on",)}))
    ),
    # Projection over a join: the fused probe gathers only kept columns.
    "fused_projection_natural": Projection(
        NaturalJoin(scan("EMP_DEPT", "emp", "dept"), scan("DEPT_MGR", "dept", "mgr")),
        ("mgr", "emp"),
    ),
    "fused_projection_equi": Projection(
        EquiJoin(
            scan("EMP_DEPT", "emp", "dept"),
            scan("DEPT_MGR", "d", "mgr"),
            (("dept", "d"),),
        ),
        ("mgr",),
    ),
}

# One structurally shared subtree used twice: exercises the shared-subplan
# memo of both executors.
_SHARED = Projection(
    NaturalJoin(scan("EMP_DEPT", "emp", "dept"), scan("DEPT_MGR", "dept", "mgr")),
    ("dept",),
)
PLANS["shared_subplan"] = UnionAll(UnionAll(_SHARED, _SHARED), Projection(_SHARED, ("dept",)))
PLANS["shared_empty"] = UnionAll(
    Selection(_SHARED, bindings=(("dept", "nope"),)),
    Selection(_SHARED, bindings=(("dept", "nope"),)),
)


class TestOperatorParity:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_matches_tuple_executor(self, database, name):
        plan = PLANS[name]
        expected = execute(plan, database, vectorize=False)
        actual = execute_batched(plan, database)
        assert actual.columns == expected.columns
        assert actual.rows == expected.rows

    @pytest.mark.parametrize("batch_rows", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_every_batch_size(self, database, name, batch_rows):
        plan = PLANS[name]
        expected = execute(plan, database, vectorize=False)
        assert execute_batched(plan, database, batch_rows=batch_rows) == expected

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_without_indexes(self, database, name):
        plan = PLANS[name]
        expected = execute(plan, database, vectorize=False, use_indexes=False)
        assert execute_batched(plan, database, use_indexes=False) == expected

    def test_scan_arity_mismatch_raises(self, database):
        with pytest.raises(EvaluationError):
            execute_batched(ScanRelation("EMP_DEPT", ("emp",)), database)

    def test_unknown_relation_raises(self, database):
        from repro.errors import DatabaseError

        with pytest.raises(DatabaseError):
            execute_batched(ScanRelation("NOWHERE", ("a",)), database)


def observed_run(plan, storage, observer, **options):
    """Execute *plan* under *observer*; ``(table, account, profiler)``."""
    account = ResourceAccount() if observer in ("account", "both") else None
    profiler = PlanProfiler() if observer in ("profiler", "both") else None
    with activate(account) if account is not None else nullcontext():
        table = execute_batched(plan, storage, profiler=profiler, **options)
    return table, account, profiler


def bill(account: ResourceAccount) -> tuple[int, int, int]:
    return account.rows_scanned, account.rows_emitted, account.cache_hits


def assert_observers_change_nothing(plan, storage, index_calls, label=None):
    """Same answers and index calls under every observer; returns the answers."""
    runs = []
    for observer in OBSERVERS:
        index_calls.clear()
        table, __, __ = observed_run(plan, storage, observer)
        runs.append((observer, table, list(index_calls)))
    __, expected, expected_calls = runs[0]
    for observer, table, calls in runs[1:]:
        assert table == expected, (label, observer)
        assert calls == expected_calls, (label, observer)
    return expected


def assert_profiler_changes_no_bill(plan, storage, label=None):
    __, alone, __ = observed_run(plan, storage, "account")
    __, watched, profiler = observed_run(plan, storage, "both")
    assert bill(watched) == bill(alone), label
    assert profiler.tree(node_label) is not None, label


class TestObserverIndependence:
    """A profiler or an account observes an execution without changing it."""

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_answers_and_index_calls_identical(self, database, index_calls, name):
        answers = assert_observers_change_nothing(PLANS[name], database, index_calls, name)
        assert answers == execute(PLANS[name], database, vectorize=False)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_account_totals_identical_with_and_without_profiler(self, database, name):
        assert_profiler_changes_no_bill(PLANS[name], database)

    @pytest.mark.parametrize(
        "name, scanned",
        [
            ("scan", 4),  # a scan charges the rows it reads
            ("index_scan", 2),  # an index scan charges the rows it returns
            ("join_unique_build", 4),  # the indexed build side charges nothing
            ("join_renamed_build", 4),  # ... also through a rename
            ("anti_join", 7),  # ... and a filter side's scan the rows it reads
        ],
    )
    def test_account_bills_the_path_taken(self, database, name, scanned):
        __, account, __ = observed_run(PLANS[name], database, "account")
        assert account.rows_scanned == scanned

    def test_vectorized_profile_reports_batches(self, database):
        plan = PLANS["join_unique_build"]
        profiler = PlanProfiler()
        execute_batched(plan, database, profiler=profiler, batch_rows=2)
        tree = profiler.tree(node_label)
        assert tree["batches"] >= 1

    @pytest.mark.parametrize("name", ["fused_projection_natural", "fused_projection_equi"])
    def test_a_fused_join_reports_its_rows(self, database, name):
        profiler = PlanProfiler()
        execute_batched(PLANS[name], database, profiler=profiler)
        projection = profiler.tree(node_label)
        (join,) = projection["children"]
        assert join["rows"] == projection["rows"] == 4
        assert [child["rows"] for child in join["children"]] == [4, None]  # indexed build

    def test_shared_subplan_replays_are_memo_hits(self, database):
        profiler = PlanProfiler()
        execute_batched(PLANS["shared_subplan"], database, profiler=profiler)
        shared = profiler.tree(node_label)["children"][0]["children"][0]
        assert shared["rows"] == 4 and shared["memo_hits"] == 2


class TestColumnBatch:
    def test_selection_vector_views(self):
        batch = ColumnBatch((("a", "b", "c"), ("1", "2", "3")), 3, sel=[0, 2])
        assert batch.count == 2
        assert tuple(map(tuple, batch.compact())) == (("a", "c"), ("1", "3"))
        assert list(batch.row_tuples()) == [("a", "1"), ("c", "3")]
        assert list(batch.physical_indices()) == [0, 2]

    def test_full_batch(self):
        batch = ColumnBatch((("a", "b"),), 2)
        assert batch.count == 2
        assert batch.compact() == (("a", "b"),)


class TestConfiguration:
    def test_vectorize_false_runs_the_tuple_executor(self, database, monkeypatch):
        plan = PLANS["join_unique_build"]
        expected = execute(plan, database)

        def refuse(*args, **kwargs):
            raise AssertionError("vectorize=False ran the batch executor")

        monkeypatch.setattr("repro.physical.batch.execute_batched", refuse)
        assert execute(plan, database, vectorize=False) == expected

    def test_batch_rows_sets_the_scan_batch_size(self, database):
        counts = {}
        for batch_rows in (1, 3, DEFAULT_BATCH_SIZE):
            profiler = PlanProfiler()
            execute_batched(PLANS["scan"], database, profiler=profiler, batch_rows=batch_rows)
            counts[batch_rows] = profiler.tree(node_label)["batches"]
        # EMP_DEPT holds four rows.
        assert counts == {1: 4, 3: 2, DEFAULT_BATCH_SIZE: 1}

    def test_retired_vector_switch_changes_nothing(self, database, monkeypatch):
        monkeypatch.setenv("REPRO_NO_VECTOR", "1")
        profiler = PlanProfiler()
        execute(PLANS["join_unique_build"], database, profiler=profiler)
        assert "batches" in profiler.tree(node_label)

    def test_retired_batch_size_knob_changes_nothing(self, database, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "1")
        profiler = PlanProfiler()
        execute(PLANS["scan"], database, profiler=profiler)
        assert profiler.tree(node_label)["batches"] == 1


class TestSkewedStarParity:
    """The skewed-star workload's plans: answers and index calls independent
    of observers, and equal to the tuple reference at every batch size."""

    @pytest.fixture(scope="class")
    def skewed(self):
        from repro.approx.evaluator import ApproximateEvaluator
        from repro.workloads.generators import skewed_adaptive_workload, skewed_star_database

        database = skewed_star_database(
            n_entities=60, n_links=20, n_hubs=3, n_targets=10, facts_per_entity=5, n_hot=2, seed=7
        )
        evaluator = ApproximateEvaluator(engine="algebra")
        storage = evaluator.storage(database)
        plans = []
        for name, query in skewed_adaptive_workload():
            plan = evaluator.plan_on_storage(storage, evaluator.rewrite(query))
            if plan is not None:
                plans.append((name, plan))
        assert plans, "the skewed workload produced no algebra plans"
        return storage, plans

    def test_answers_and_observations_identical(self, skewed, index_calls):
        storage, plans = skewed
        for name, plan in plans:
            answers = assert_observers_change_nothing(plan, storage, index_calls, name)
            assert answers == execute(plan, storage, vectorize=False), name
            assert_profiler_changes_no_bill(plan, storage, name)

    def test_answers_identical_at_every_batch_size(self, skewed):
        storage, plans = skewed
        for name, plan in plans:
            expected = execute(plan, storage, vectorize=False)
            for batch_rows in BATCH_SIZES:
                assert execute_batched(plan, storage, batch_rows=batch_rows) == expected, name


class TestDistinctProbe:
    """A join whose build keys repeat probes the distinct rows of a
    column-dropping projection: each duplicate probe row would be multiplied
    by its key's fan-out.  On the E21 database ``chain4``'s last join probes
    ``Project(x0, x3)``: 1 500 rows, 300 of them distinct, each key joining
    five employees."""

    GUARDS = " & EMP_SAL('emp1', 'mid') & EMP_DEPT('emp2', 'dept2')"
    CHAIN4 = (
        "(x0, x4) . exists x1 x2 x3. EMP_DEPT(x0, x1) & EMP_DEPT(x2, x1) & EMP_DEPT(x2, x3)"
        " & EMP_DEPT(x4, x3)" + GUARDS
    )
    CO_SALARY = "(x, y, s) . exists z. EMP_DEPT(x, z) & EMP_DEPT(y, z) & EMP_SAL(y, s)" + GUARDS

    @pytest.fixture(scope="class")
    def e21(self):
        from repro.approx.evaluator import ApproximateEvaluator
        from repro.logic.parser import parse_query
        from repro.workloads.generators import employee_database

        evaluator = ApproximateEvaluator(engine="algebra")
        storage = evaluator.storage(employee_database(300, seed=21))

        def plan(text):
            return evaluator.plan_on_storage(storage, parse_query(text))

        return storage, plan

    @pytest.mark.parametrize("batch_rows", BATCH_SIZES)
    def test_chain4_last_join_probes_distinct_rows(self, e21, batch_rows):
        storage, plan_of = e21
        plan = plan_of(self.CHAIN4)
        profiler = PlanProfiler()
        table = execute_batched(plan, storage, profiler=profiler, batch_rows=batch_rows)
        assert table == execute(plan, storage, vectorize=False)
        root = profiler.tree(node_label)
        assert root["operator"] == "Project(x0, x4)"
        (last_join,) = root["children"]
        probe = last_join["children"][0]
        assert probe["operator"] == "Project(x0, x3)"
        assert probe["rows"] == 300
        assert probe["children"][0]["rows"] == 1_500  # the fused join below it
        assert last_join["rows"] == len(table.rows) == 1_500

    def test_a_unique_build_is_not_deduplicated(self, e21):
        storage, plan_of = e21
        plan = plan_of(self.CO_SALARY)
        profiler = PlanProfiler()
        table = execute_batched(plan, storage, profiler=profiler)
        assert table == execute(plan, storage, vectorize=False)
        outer = profiler.tree(node_label)
        assert outer["operator"] == "NaturalJoin"  # build: EMP_SAL keyed by employee
        probe = outer["children"][0]
        assert probe["operator"] == "Project(x, y)"
        assert probe["rows"] == probe["children"][0]["rows"] == 1_500
