"""Prepared statements through the cluster router: decompose once, bind per shard."""

from __future__ import annotations

import pytest

from repro.cluster.deploy import local_router
from repro.errors import UnknownStatementError
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest
from repro.workloads.generators import employee_database

#: Template text → bindings, chosen so every routing rule is exercised:
#: scatter (split relation), single shard (replicated-only), Boolean
#: conjunction, and the full-copy fallback — the last also with a negated
#: atom over a parameter (an ``alpha_P`` template: known and null manager).
TEMPLATES = {
    "(x) . EMP_DEPT($e, x)": [{"e": f"emp{i}"} for i in range(6)],
    "(x) . DEPT_MGR($d, x)": [{"d": "dept0"}, {"d": "dept1"}],
    "() . EMP_DEPT($e, $d) & DEPT_MGR($d, $m)": [
        {"e": "emp0", "d": "dept0", "m": "emp1"},
        {"e": "emp1", "d": "dept1", "m": "emp0"},
    ],
    "(x1) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, $m)": [{"m": "emp0"}, {"m": "emp3"}],
    "(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, $k)": [{"k": "emp11"}, {"k": "mgr_null11"}],
}


@pytest.fixture(scope="module")
def employee():
    return employee_database(90, seed=11)


@pytest.fixture(scope="module")
def single(employee):
    service = QueryService()
    service.register("emp", employee)
    return service


@pytest.fixture
def router(employee):
    router = local_router({"emp": employee}, shards=3, replicas=2, replication_threshold=64)
    yield router
    router.close()


class TestEquivalence:
    @pytest.mark.parametrize("template", sorted(TEMPLATES), ids=lambda t: t[:30])
    def test_prepared_cluster_answers_equal_single_process(self, router, single, template):
        statement = router.prepare("emp", template)
        for binding in TEMPLATES[template]:
            clustered = router.execute_prepared(statement.statement_id, binding)
            reference = single.execute(QueryRequest("emp", clustered.query))
            assert clustered.answers == reference.answers, (template, binding)
            assert clustered.fingerprint == reference.fingerprint

    def test_execute_many_through_the_cluster(self, router, single):
        template = "(x) . EMP_DEPT($e, x)"
        statement = router.prepare("emp", template)
        bindings = TEMPLATES[template] + [TEMPLATES[template][0]]
        batch = router.execute_prepared_many(statement.statement_id, bindings)
        assert batch.total == len(bindings)
        assert batch.deduplicated == 1
        for binding, response in zip(bindings, batch.responses):
            reference = single.execute(QueryRequest("emp", response.query))
            assert response.answers == reference.answers, binding


class TestAmortization:
    def test_decomposition_happens_once_per_template(self, router):
        template = "(x) . EMP_DEPT($e, x)"
        statement = router.prepare("emp", template)
        before = router.stats().plan_cache
        for binding in TEMPLATES[template]:
            router.execute_prepared(statement.statement_id, binding)
        after = router.stats().plan_cache
        # Executions hit the cached template decomposition: no new misses.
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]

    def test_prepare_deduplicates_templates(self, router):
        first = router.prepare("emp", "(x) . EMP_DEPT($e,x)")
        second = router.prepare("emp", "(x) . EMP_DEPT($e, x)")
        assert first.statement_id == second.statement_id

    def test_unknown_statement(self, router):
        with pytest.raises(UnknownStatementError):
            router.execute_prepared("stmt-404", {})


class TestStats:
    def test_prepared_counters_aggregate_cluster_wide(self, router):
        template = "(x) . EMP_DEPT($e, x)"
        statement = router.prepare("emp", template)
        router.execute_prepared(statement.statement_id, {"e": "emp0"})
        stats = router.stats()
        assert stats.prepared["templates"] >= 1
        assert stats.prepared["executions"] >= 1
        assert stats.prepared["statements"] >= 1

    def test_workers_advertise_protocol_versions(self, router):
        router.health_check()
        stats = router.stats()
        for summary in stats.cluster["workers"].values():
            assert 2 in summary["protocol_versions"]
