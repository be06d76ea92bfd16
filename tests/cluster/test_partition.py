"""Partitioning: determinism, fingerprint stability, shard contents, decomposition."""

from __future__ import annotations

import pytest

from repro.cluster.partition import (
    BooleanConjunction,
    FullCopy,
    PartitionScheme,
    ScatterUnion,
    SingleShard,
    decompose_query,
    partition_database,
    shard_of,
)
from repro.errors import ClusterError
from repro.logic.parser import parse_query
from repro.logical.database import CWDatabase
from repro.workloads.generators import employee_database, random_cw_database


@pytest.fixture
def employee():
    return employee_database(120, seed=7)


@pytest.fixture
def layout(employee):
    # DEPT_MGR is small enough to replicate; EMP_DEPT / EMP_SAL get split.
    return partition_database("emp", employee, PartitionScheme(3, replication_threshold=64))


class TestScheme:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ClusterError):
            PartitionScheme(0)

    def test_shard_of_is_stable_and_in_range(self):
        for n_shards in (1, 2, 3, 7):
            shard = shard_of("R", ("a", "b"), n_shards)
            assert 0 <= shard < n_shards
            assert shard == shard_of("R", ("a", "b"), n_shards)

    def test_shard_of_depends_on_relation_name(self):
        shards = {shard_of(name, ("a", "b"), 16) for name in ("R", "S", "T", "U", "V")}
        assert len(shards) > 1


class TestLayoutContents:
    def test_classification_by_threshold(self, layout):
        assert layout.replicated == {"DEPT_MGR"}
        assert layout.split == {"EMP_DEPT", "EMP_SAL"}

    def test_every_shard_keeps_all_constants_and_uniqueness_axioms(self, layout, employee):
        for shard in layout.shards:
            assert shard.constants == employee.constants
            assert (shard.unknown, shard.explicit) == (employee.unknown, employee.explicit)

    def test_replicated_relations_are_complete_on_every_shard(self, layout, employee):
        for shard in layout.shards:
            assert shard.facts_for("DEPT_MGR") == employee.facts_for("DEPT_MGR")

    def test_split_relations_partition_exactly(self, layout, employee):
        for relation in layout.split:
            pieces = [shard.facts_for(relation) for shard in layout.shards]
            assert frozenset().union(*pieces) == employee.facts_for(relation)
            total = sum(len(piece) for piece in pieces)
            assert total == len(employee.facts_for(relation)), "tuples must not be duplicated"

    def test_partitioning_is_fingerprint_stable(self, employee):
        scheme = PartitionScheme(3, replication_threshold=64)
        first = partition_database("emp", employee, scheme)
        # A content-equal database built in a different insertion order.
        shuffled = CWDatabase(
            employee.constants,
            dict(employee.predicates),
            {name: sorted(employee.facts_for(name), reverse=True) for name in employee.predicates},
            sorted(employee.unequal_pairs(), reverse=True),
        )
        assert shuffled.fingerprint() == employee.fingerprint()
        second = partition_database("emp", shuffled, scheme)
        for left, right in zip(first.shards, second.shards):
            assert left.fingerprint() == right.fingerprint()

    def test_single_shard_layout_reproduces_the_database(self, employee):
        layout = partition_database("emp", employee, PartitionScheme(1))
        assert layout.shards[0].fingerprint() == employee.fingerprint()
        assert layout.full_name == layout.shard_name(0)
        assert layout.snapshot_names() == (layout.shard_name(0),)

    def test_snapshot_lookup_and_names(self, layout):
        names = layout.snapshot_names()
        assert names == ("emp::shard0", "emp::shard1", "emp::shard2", "emp::full")
        assert layout.snapshot("emp::full") is layout.full
        with pytest.raises(ClusterError):
            layout.snapshot("emp::shard99")


class TestDecomposition:
    def test_replicated_only_queries_route_to_one_shard(self, layout):
        plan = decompose_query(layout, parse_query("(x, y) . DEPT_MGR(x, y)"))
        assert isinstance(plan, SingleShard)
        assert 0 <= plan.shard < layout.n_shards
        # Routing is deterministic per query text.
        assert decompose_query(layout, parse_query("(x, y) . DEPT_MGR(x, y)")) == plan

    def test_bare_atoms_over_split_relations_scatter(self, layout):
        assert isinstance(decompose_query(layout, parse_query("(x, y) . EMP_DEPT(x, y)")), ScatterUnion)
        assert isinstance(decompose_query(layout, parse_query("(x) . EMP_SAL(x, 'mid')")), ScatterUnion)
        assert isinstance(decompose_query(layout, parse_query("(x) . EMP_DEPT(x, x)")), ScatterUnion)

    def test_ground_boolean_conjunctions_decompose_per_conjunct(self, layout):
        plan = decompose_query(
            layout,
            parse_query("() . EMP_DEPT('emp0', 'dept0') & DEPT_MGR('dept0', 'emp1')"),
        )
        assert isinstance(plan, BooleanConjunction)
        kinds = [type(sub_plan) for __, sub_plan in plan.parts]
        assert kinds == [ScatterUnion, SingleShard]

    def test_joins_across_split_relations_fall_back(self, layout):
        plan = decompose_query(
            layout, parse_query("(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)")
        )
        assert isinstance(plan, FullCopy)

    def test_negated_atoms_fall_back(self, layout):
        assert isinstance(decompose_query(layout, parse_query("(x) . ~EMP_DEPT(x, 'dept0')")), FullCopy)

    def test_conjunction_over_replicated_relations_allows_any_shape(self, layout):
        # A negated conjunct is fine when its relation is fully replicated:
        # the shard sees the complete relation, constants and axioms.
        plan = decompose_query(
            layout,
            parse_query("() . EMP_DEPT('emp0', 'dept0') & ~DEPT_MGR('dept0', 'emp1')"),
        )
        assert isinstance(plan, BooleanConjunction)
        kinds = [type(sub_plan) for __, sub_plan in plan.parts]
        assert kinds == [ScatterUnion, SingleShard]

    def test_conjunction_with_one_bad_conjunct_falls_back_whole(self, layout):
        # A negated atom over a *split* relation is not decomposable, and one
        # bad conjunct sends the whole conjunction to the full copy.
        plan = decompose_query(
            layout,
            parse_query("() . DEPT_MGR('dept0', 'emp1') & ~EMP_DEPT('emp0', 'dept0')"),
        )
        assert isinstance(plan, FullCopy)

    def test_single_shard_layout_routes_everything_to_shard_zero(self, employee):
        layout = partition_database("emp", employee, PartitionScheme(1))
        for text in ("(x, y) . EMP_DEPT(x, y)", "(x) . ~EMP_SAL(x, 'mid')"):
            assert decompose_query(layout, parse_query(text)) == SingleShard(0)

    def test_unknown_predicates_fall_back_to_full_copy(self, layout):
        plan = decompose_query(layout, parse_query("(x) . NO_SUCH_RELATION(x, x)"))
        assert isinstance(plan, FullCopy)


class TestRandomizedPartitionInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_shards_always_rebuild_the_database(self, seed):
        database = random_cw_database(
            8, {"P": 1, "R": 2, "S": 2}, 40, unknown_fraction=0.4, seed=seed
        )
        layout = partition_database("db", database, PartitionScheme(4, replication_threshold=5))
        for relation in database.predicates:
            union = frozenset().union(*(shard.facts_for(relation) for shard in layout.shards))
            assert union == database.facts_for(relation)
