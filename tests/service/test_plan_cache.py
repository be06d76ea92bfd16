"""Tests for the query service's compiled-plan cache."""

from repro.service.engine import QueryService
from repro.service.protocol import StatsResponse, parse_wire, to_wire
from repro.workloads.generators import employee_database

QUERY = "(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)"


def _service(**kwargs):
    service = QueryService(**kwargs)
    service.register("emp", employee_database(12, seed=4), precompute=False)
    return service


class TestPlanCache:
    def test_first_algebra_query_misses_then_hits(self):
        service = _service(answer_cache_capacity=0)  # force re-evaluation
        service.query("emp", QUERY)
        stats = service.stats().plan_cache
        assert stats["misses"] == 1 and stats["hits"] == 0
        service.query("emp", QUERY)
        stats = service.stats().plan_cache
        assert stats["hits"] == 1

    def test_cached_plan_returns_same_answers(self):
        service = _service(answer_cache_capacity=0)
        first = service.query("emp", QUERY)
        second = service.query("emp", QUERY)
        assert first.answers == second.answers

    def test_tarski_engine_does_not_break_plan_cache(self):
        service = _service(answer_cache_capacity=0)
        first = service.query("emp", QUERY, engine="tarski")
        second = service.query("emp", QUERY, engine="tarski")
        third = service.query("emp", QUERY, engine="algebra")
        assert first.answers == second.answers == third.answers

    def test_plan_cache_keyed_per_engine(self):
        service = _service(answer_cache_capacity=0)
        service.query("emp", QUERY, engine="algebra")
        service.query("emp", QUERY, engine="algebra", method="both")
        assert service.stats().plan_cache["size"] == 1
        service.query("emp", QUERY, engine="auto")
        assert service.stats().plan_cache["size"] == 2

    def test_unregister_drops_plans(self):
        service = _service(answer_cache_capacity=0)
        service.query("emp", QUERY)
        assert service.stats().plan_cache["size"] == 1
        service.unregister("emp")
        assert service.stats().plan_cache["size"] == 0

    def test_plan_cache_can_be_disabled(self):
        service = _service(answer_cache_capacity=0, plan_cache_capacity=0)
        service.query("emp", QUERY)
        service.query("emp", QUERY)
        stats = service.stats().plan_cache
        assert stats["hits"] == 0 and stats["size"] == 0


class TestStatsWire:
    def test_stats_response_roundtrips_with_plan_cache(self):
        service = _service()
        service.query("emp", QUERY)
        stats = service.stats()
        decoded = parse_wire(to_wire(stats))
        assert decoded.plan_cache == dict(stats.plan_cache)

    def test_old_stats_message_without_plan_cache_still_parses(self):
        payload = to_wire(
            StatsResponse(
                databases=("a",),
                answer_cache={},
                parse_cache={},
                batch={},
                uptime_seconds=1.0,
            )
        )
        del payload["plan_cache"]
        decoded = parse_wire(payload)
        assert decoded.plan_cache == {}
