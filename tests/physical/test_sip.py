"""Tests for sideways information passing (the semi-join reducer pass)."""

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.approx.rewrite import rewrite_query
from repro.logic.parser import parse_query
from repro.logic.printer import query_to_text
from repro.logical.ph import ph2
from repro.physical.algebra import execute, plan_to_text
from repro.physical.compiler import compile_query
from repro.physical.evaluator import evaluate_query
from repro.physical.optimizer import optimize
from repro.physical.plan import AntiJoin, SemiJoin
from repro.physical.statistics import Statistics
from repro.service.engine import QueryService
from repro.service.protocol import answers_to_wire
from repro.workloads.generators import (
    skewed_adaptive_workload,
    skewed_star_database,
)


def _contains(plan, node_type) -> bool:
    if isinstance(plan, node_type):
        return True
    return any(_contains(child, node_type) for child in plan.children())


@pytest.fixture(scope="module")
def storage():
    return ph2(
        skewed_star_database(
            n_entities=90, n_links=30, n_hubs=3, n_targets=15, facts_per_entity=6, n_hot=3, seed=5
        )
    )


class TestSemiJoinReduction:
    def test_sip_inserts_semi_joins_on_the_skewed_workload(self, storage):
        inserted = 0
        for __, query in skewed_adaptive_workload():
            plan = compile_query(rewrite_query(query, "direct"), storage)
            with_sip = optimize(plan, storage, statistics=Statistics(storage))
            without = optimize(plan, storage, statistics=Statistics(storage), sip=False)
            assert not _contains(without, SemiJoin)
            if _contains(with_sip, SemiJoin):
                inserted += 1
        assert inserted > 0, "SIP never fired on its own motivating workload"

    def test_sip_plans_are_answer_identical(self, storage):
        for name, query in skewed_adaptive_workload():
            plan = compile_query(rewrite_query(query, "direct"), storage)
            with_sip = optimize(plan, storage, statistics=Statistics(storage))
            without = optimize(plan, storage, statistics=Statistics(storage), sip=False)
            naive = execute(plan, storage, use_indexes=False).rows
            assert answers_to_wire(execute(with_sip, storage).rows) == answers_to_wire(naive), name
            assert answers_to_wire(execute(without, storage).rows) == answers_to_wire(naive), name

    def test_every_configuration_equals_tarskian_ground_truth(self):
        """SIP on, SIP off, the naive engine, the ``auto`` dispatcher and the
        adaptive service (observe, then re-optimize) all equal direct
        Tarskian evaluation, on an instance small enough to enumerate."""
        database = skewed_star_database(
            n_entities=60, n_links=20, n_hubs=3, n_targets=10, facts_per_entity=5, n_hot=2, seed=3
        )
        storage = ph2(database)
        service = QueryService(answer_cache_capacity=0)
        service.register("skewed", database)
        auto = ApproximateEvaluator(engine="auto")
        try:
            for name, query in skewed_adaptive_workload():
                text = query_to_text(query)
                rewritten = rewrite_query(query, "direct")
                plan = compile_query(rewritten, storage)
                truth = evaluate_query(storage, rewritten)
                assert execute(plan, storage, use_indexes=False).rows == truth, name
                for sip in (True, False):
                    optimized = optimize(plan, storage, statistics=Statistics(storage), sip=sip)
                    assert execute(optimized, storage).rows == truth, (name, sip)
                assert auto.answers_on_storage(storage, query) == truth, name
                service.query("skewed", text)  # observe
                assert service.query("skewed", text).answer_set("approximate") == truth, name
        finally:
            service.close()

    def test_sip_plans_agree_without_indexes(self, storage):
        """The semi-join membership fallback equals the index-probe path."""
        for name, query in skewed_adaptive_workload()[:2]:
            plan = optimize(
                compile_query(rewrite_query(query, "direct"), storage),
                storage,
                statistics=Statistics(storage),
            )
            indexed = execute(plan, storage, use_indexes=True).rows
            scanned = execute(plan, storage, use_indexes=False).rows
            assert indexed == scanned, name

    def test_filter_subplans_are_shared_with_the_join_input(self, storage):
        """The SIP filter is a projection of the sibling, interned to one object."""
        __, query = skewed_adaptive_workload()[0]
        plan = optimize(
            compile_query(rewrite_query(query, "direct"), storage),
            storage,
            statistics=Statistics(storage),
        )

        semis = []

        def collect(node):
            if isinstance(node, SemiJoin):
                semis.append(node)
            for child in node.children():
                collect(child)

        collect(plan)
        assert semis, "expected at least one semi-join in the optimized plan"
        ids = set()

        def collect_ids(node):
            ids.add(id(node))
            for child in node.children():
                collect_ids(child)

        collect_ids(plan)
        for semi in semis:
            source = semi.filter
            while source.children() and not source.children()[0] is None:
                # A filter is (a projection chain over) some sibling subtree;
                # interning must have made that subtree reference-shared.
                source = source.children()[0]
                if id(source) in ids:
                    break
            assert id(source) in ids


class TestDifferenceReduction:
    def test_selective_difference_becomes_an_anti_join(self, storage):
        """``small - big`` is rewritten so only left-keyed filter rows count."""
        from repro.physical.plan import Difference, LiteralTable, ScanRelation

        small = LiteralTable(("x", "z"), frozenset({("x0", "z0"), ("x1", "z1"), ("nope", "nope")}))
        big = ScanRelation("FACT_A", ("x", "z"))
        plan = Difference(small, big)
        optimized = optimize(plan, storage, statistics=Statistics(storage))
        assert _contains(optimized, AntiJoin)
        assert _contains(optimized, SemiJoin)  # the filter side got reduced too
        naive = execute(plan, storage, use_indexes=False).rows
        assert execute(optimized, storage).rows == naive
        assert execute(optimized, storage, use_indexes=False).rows == naive
        without = optimize(plan, storage, statistics=Statistics(storage), sip=False)
        assert not _contains(without, AntiJoin)
        assert execute(without, storage).rows == naive

    def test_universe_left_sides_are_left_alone(self, storage):
        """Negation's active-domain universe covers every key: no reduction."""
        from repro.physical.plan import ActiveDomain, CrossProduct, Difference, ScanRelation

        universe = CrossProduct(ActiveDomain("x"), ActiveDomain("z"))
        plan = Difference(universe, ScanRelation("FACT_A", ("x", "z")))
        optimized = optimize(plan, storage, statistics=Statistics(storage))
        assert not _contains(optimized, AntiJoin)
        assert execute(optimized, storage).rows == execute(plan, storage, use_indexes=False).rows


class TestEscapeHatches:
    def test_sip_false_disables_sip(self, storage):
        __, query = skewed_adaptive_workload()[0]
        plan = compile_query(rewrite_query(query, "direct"), storage)
        assert not _contains(optimize(plan, storage, statistics=Statistics(storage), sip=False), SemiJoin)

    def test_sip_is_on_by_default(self, storage):
        __, query = skewed_adaptive_workload()[0]
        plan = compile_query(rewrite_query(query, "direct"), storage)
        default = optimize(plan, storage, statistics=Statistics(storage))
        assert default == optimize(plan, storage, statistics=Statistics(storage), sip=True)
        assert _contains(default, SemiJoin)

    def test_retired_env_switch_changes_nothing(self, storage, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SIP", "1")
        __, query = skewed_adaptive_workload()[0]
        plan = compile_query(rewrite_query(query, "direct"), storage)
        assert _contains(optimize(plan, storage, statistics=Statistics(storage)), SemiJoin)

    def test_small_inputs_are_never_reduced(self):
        """Below the row threshold SIP stays out, keeping small plans stable."""
        from repro.workloads.generators import employee_database

        storage = ph2(employee_database(12, seed=4))
        query = parse_query("(x) . exists y. EMP_DEPT(x, y) & DEPT_MGR(y, 'emp0')")
        plan = compile_query(rewrite_query(query, "direct"), storage)
        optimized = optimize(plan, storage)
        assert not _contains(optimized, SemiJoin)
        assert "SemiJoin" not in plan_to_text(optimized)

    def test_noop_difference_push_keeps_the_difference(self, storage):
        """No scan to attach a semi-join to → no pointless AntiJoin rewrite."""
        from repro.physical.plan import Difference, IndexScan, LiteralTable, Projection

        small = LiteralTable(("x",), frozenset({("x0",), ("x1",)}))
        right = Projection(IndexScan("EVENT", ("x", "tag"), (("tag", "tag0"),)), ("x",))
        plan = Difference(small, right)
        optimized = optimize(plan, storage, statistics=Statistics(storage))
        assert not _contains(optimized, AntiJoin)
        assert execute(optimized, storage).rows == execute(plan, storage, use_indexes=False).rows
