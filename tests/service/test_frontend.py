"""The front-end contract: one session surface, single-process or clustered.

:class:`~repro.service.engine.QueryService` and
:class:`~repro.cluster.router.ClusterRouter` differ only in how a request is
evaluated; everything a client sees of the session layer — statement
registry, prepared executions, batch dedup, warm-up, the terminal close and
the shape of ``stats()`` — must behave identically.  Every test here runs
against both, on the same database.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.deploy import local_router
from repro.errors import ServiceClosedError, UnknownStatementError
from repro.service.engine import QueryService
from repro.service.protocol import ErrorResponse, QueryRequest, StatsResponse
from repro.workloads.generators import employee_database

TEMPLATE = "(x) . EMP_DEPT($e, x)"
BINDINGS = [{"e": "emp0"}, {"e": "emp1"}, {"e": "emp0"}, {}, {"e": "emp2"}]
#: Routes to a single shard on the router (replicated relation), so it needs
#: no fan-out pool and still answers after close().
SINGLE_SHARD = QueryRequest("emp", "(x, y) . DEPT_MGR(x, y)")


@pytest.fixture(scope="module")
def employee():
    return employee_database(90, seed=11)


@pytest.fixture(params=["service", "router"])
def frontend(request, employee):
    if request.param == "service":
        frontend = QueryService()
        frontend.register("emp", employee)
    else:
        frontend = local_router({"emp": employee}, shards=3, replicas=2, replication_threshold=64)
    yield frontend
    try:
        frontend.close()
    except ServiceClosedError:
        pass


class TestStatements:
    def test_preparing_a_template_twice_returns_the_same_statement(self, frontend):
        first = frontend.prepare("emp", TEMPLATE)
        again = frontend.prepare("emp", TEMPLATE)
        assert again.statement_id == first.statement_id
        assert frontend.statement(first.statement_id) == first
        assert frontend.stats().prepared["templates"] == 1

    def test_deallocated_statements_are_unknown(self, frontend):
        statement = frontend.prepare("emp", TEMPLATE)
        frontend.deallocate(statement.statement_id)
        with pytest.raises(UnknownStatementError):
            frontend.statement(statement.statement_id)
        with pytest.raises(UnknownStatementError):
            frontend.execute_prepared(statement.statement_id, {"e": "emp0"})
        with pytest.raises(UnknownStatementError):
            frontend.deallocate(statement.statement_id)

    def test_prepared_answers_equal_the_bound_adhoc_request(self, frontend):
        statement = frontend.prepare("emp", TEMPLATE)
        for binding in BINDINGS[:2]:
            prepared = frontend.execute_prepared(statement.statement_id, binding)
            adhoc = frontend.execute(QueryRequest("emp", prepared.query))
            assert prepared.answers == adhoc.answers
            assert prepared.arity == adhoc.arity == 1
            assert prepared.fingerprint == adhoc.fingerprint
            assert prepared.database == adhoc.database == "emp"
        assert frontend.stats().prepared["executions"] == 2

    def test_execute_prepared_many_is_positional_and_deduplicated(self, frontend):
        statement = frontend.prepare("emp", TEMPLATE)
        batch = frontend.execute_prepared_many(statement.statement_id, BINDINGS)
        assert (batch.total, batch.unique, batch.deduplicated) == (5, 4, 1)
        assert isinstance(batch.responses[3], ErrorResponse)  # $e left unbound
        for binding, response in zip(BINDINGS, batch.responses):
            if binding:
                single = frontend.execute_prepared(statement.statement_id, binding)
                assert response.answers == single.answers
        assert batch.responses[0] == batch.responses[2]


class TestBatchAndWarm:
    def test_batch_dedup_shows_in_stats(self, frontend):
        before = frontend.stats().batch
        other = QueryRequest("emp", "(x) . EMP_SAL(x, 'mid')")
        batch = frontend.batch([SINGLE_SHARD, other] * 3)
        assert (batch.total, batch.unique, batch.deduplicated) == (6, 2, 4)
        after = frontend.stats().batch
        assert after["executed"] - before["executed"] == 2
        assert after["deduplicated"] - before["deduplicated"] == 4

    def test_warm_replays_a_stream_and_reports(self, frontend):
        request = QueryRequest("emp", "(x) . EMP_SAL(x, 'high')")
        report = frontend.warm([request, request, QueryRequest("emp", "syntax error ("), "not a request"])
        assert (report.total, report.warmed, report.already_cached, report.failed) == (4, 1, 1, 2)


class TestClose:
    def test_close_is_terminal(self, frontend):
        frontend.batch([SINGLE_SHARD])
        frontend.close()
        with pytest.raises(ServiceClosedError):
            frontend.close()
        with pytest.raises(ServiceClosedError):
            frontend.batch([SINGLE_SHARD])
        with pytest.raises(ServiceClosedError):
            frontend.batch([SINGLE_SHARD], max_workers=2)
        statement = frontend.prepare("emp", TEMPLATE)
        with pytest.raises(ServiceClosedError):
            frontend.execute_prepared_many(statement.statement_id, BINDINGS)
        assert frontend.execute(SINGLE_SHARD).answers["approximate"]


class TestStats:
    def test_stats_field_sets(self, frontend):
        statement = frontend.prepare("emp", TEMPLATE)
        frontend.execute_prepared(statement.statement_id, {"e": "emp0"})
        frontend.execute(SINGLE_SHARD)
        stats = frontend.stats()
        assert isinstance(stats, StatsResponse)
        assert {f.name for f in dataclasses.fields(stats)} == {
            "databases", "answer_cache", "parse_cache", "batch", "uptime_seconds",
            "plan_cache", "cluster", "prepared",
        }
        assert stats.databases == ("emp",)
        cache_fields = {"capacity", "size", "hits", "misses", "evictions", "hit_rate"}
        assert set(stats.parse_cache) == cache_fields
        assert set(stats.plan_cache) == cache_fields
        assert set(stats.batch) == {"executed", "deduplicated"}
        assert set(stats.prepared) == {
            "templates", "executions", "generic_plans", "statements",
        }
        assert stats.prepared["statements"] == 1
        assert stats.uptime_seconds >= 0.0
        if isinstance(frontend, QueryService):
            assert set(stats.answer_cache) == cache_fields
            assert stats.cluster == {}
        else:
            assert stats.answer_cache == {}
            assert set(stats.cluster) == {
                "workers", "routing", "failovers", "replicas", "shards", "breakers", "degraded_mode",
            }
