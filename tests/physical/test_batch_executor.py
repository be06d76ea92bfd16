"""Unit tests for the vectorized column-batch executor.

The contract under test is strict equivalence with the tuple-at-a-time
executor of :mod:`repro.physical.algebra`: identical answers on every
operator at every batch size, and — when a profiler or resource account is
watching — identical observable side effects (per-node row counts, memo
hits, access decisions, ``account.*`` totals).  The fast-mode-only paths (projection fusion, rename
look-through, the columnar/distinct stored caches, parts-mode probes, the
shared-subplan batch memo) are exercised both gated **on** (no observers)
and gated **off** (observers active) against the same plans.
"""

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
    # Rename on the build side: fast mode looks through to the stored index.
    "join_renamed_build": NaturalJoin(
        scan("EMP_DEPT", "emp", "dept"),
        RenameColumns(scan("DEPT_MGR", "d", "mgr"), (("d", "dept"),)),
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
    # Filter side reduces to a stored column: the distinct-values cache.
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
# memo (tuple executor) and the columnar batch memo (vectorized fast mode).
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


class TestObserverParity:
    """With a profiler/recorder/account active the fast-mode shortcuts are
    disabled and every observation must match the tuple executor exactly."""

    @staticmethod
    def _strip_timing(node: dict) -> dict:
        clean = {
            key: value
            for key, value in node.items()
            if key not in ("time_us", "batches", "children")
        }
        clean["children"] = [
            TestObserverParity._strip_timing(child) for child in node.get("children", ())
        ]
        return clean

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_profiler_rows_match(self, database, name):
        plan = PLANS[name]
        tuple_profiler, batch_profiler = PlanProfiler(), PlanProfiler()
        expected = execute(plan, database, vectorize=False, profiler=tuple_profiler)
        actual = execute_batched(plan, database, profiler=batch_profiler)
        assert actual == expected
        assert self._strip_timing(batch_profiler.tree(node_label)) == self._strip_timing(
            tuple_profiler.tree(node_label)
        )

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_account_totals_match(self, database, name):
        plan = PLANS[name]
        tuple_account, batch_account = ResourceAccount(), ResourceAccount()
        with activate(tuple_account):
            expected = execute(plan, database, vectorize=False)
        with activate(batch_account):
            assert execute_batched(plan, database) == expected
        assert batch_account.rows_scanned == tuple_account.rows_scanned
        assert batch_account.rows_emitted == tuple_account.rows_emitted
        assert batch_account.cache_hits == tuple_account.cache_hits

    def test_tuple_profile_has_no_batches_field(self, database):
        """Tuple-path profiles keep their exact pre-vectorization shape, so
        profiles cached before the ``batches`` field existed stay byte-stable."""
        plan = PLANS["join_unique_build"]
        profiler = PlanProfiler()
        execute(plan, database, vectorize=False, profiler=profiler)

        def assert_no_batches(node):
            assert "batches" not in node
            for child in node["children"]:
                assert_no_batches(child)

        assert_no_batches(profiler.tree(node_label))

    def test_vectorized_profile_reports_batches(self, database):
        plan = PLANS["join_unique_build"]
        profiler = PlanProfiler()
        execute_batched(plan, database, profiler=profiler, batch_rows=2)
        tree = profiler.tree(node_label)
        assert tree["batches"] >= 1


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
    def test_vectorize_false_runs_the_tuple_executor(self, database):
        plan = PLANS["join_unique_build"]
        batched, tupled = PlanProfiler(), PlanProfiler()
        assert execute(plan, database, profiler=batched) == execute(
            plan, database, vectorize=False, profiler=tupled
        )
        # Only the batch executor, the default, counts batches per node.
        assert "batches" in batched.tree(node_label)
        assert "batches" not in tupled.tree(node_label)

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
    """The acceptance check on the skewed-star workload: EXPLAIN row counts
    and account totals identical between executors."""

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

    def test_answers_and_observations_identical(self, skewed):
        storage, plans = skewed
        for name, plan in plans:
            tuple_profiler, batch_profiler = PlanProfiler(), PlanProfiler()
            tuple_account, batch_account = ResourceAccount(), ResourceAccount()
            with activate(tuple_account):
                expected = execute(plan, storage, vectorize=False, profiler=tuple_profiler)
            with activate(batch_account):
                actual = execute_batched(plan, storage, profiler=batch_profiler)
            assert actual == expected, name
            strip = TestObserverParity._strip_timing
            assert strip(batch_profiler.tree(node_label)) == strip(
                tuple_profiler.tree(node_label)
            ), name
            for field in ("rows_scanned", "rows_emitted", "cache_hits"):
                assert getattr(batch_account, field) == getattr(tuple_account, field), (
                    name, field,
                )

    def test_fast_mode_answers_identical(self, skewed):
        """Without observers the fast-mode shortcuts (fusion, look-through,
        batch memo, distinct cache, parts mode) are all live — answers must
        still be byte-identical at every batch size."""
        storage, plans = skewed
        for name, plan in plans:
            expected = execute(plan, storage, vectorize=False)
            for batch_rows in BATCH_SIZES:
                assert execute_batched(plan, storage, batch_rows=batch_rows) == expected, name
