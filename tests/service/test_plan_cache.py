"""Tests for the query service's compiled-plan cache."""

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.approx.rewrite import rewrite_query
from repro.logic.printer import query_to_text
from repro.logical.ph import ph2
from repro.physical.algebra import execute
from repro.physical.compiler import compile_query
from repro.physical.plan import PlanNode
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, StatsResponse, answers_to_wire, parse_wire, to_wire
from repro.workloads.generators import employee_database, skewed_adaptive_workload, skewed_star_database

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

    def test_one_plan_per_shape_whatever_the_method(self):
        service = _service(answer_cache_capacity=0)
        service.query("emp", QUERY)
        service.query("emp", QUERY, method="both")
        service.query("emp", QUERY)
        stats = service.stats().plan_cache
        assert stats["size"] == 1 and stats["hits"] == 2

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

    def test_a_stats_message_from_an_older_server_still_parses(self):
        """Older servers also reported a ``feedback`` section; it is dropped."""
        payload = to_wire(_service().stats())
        payload["feedback"] = {"observations": 3, "invalidations": 1, "reoptimizations": 1}
        decoded = parse_wire(payload)
        assert isinstance(decoded, StatsResponse)
        assert not hasattr(decoded, "feedback")


class TestPlanAnswers:
    @pytest.fixture(scope="class")
    def skewed(self):
        return skewed_star_database(
            n_entities=90, n_links=30, n_hubs=3, n_targets=15, facts_per_entity=6, n_hot=3, seed=5
        )

    def test_repeated_executions_stay_byte_identical_to_naive(self, skewed):
        service = QueryService(answer_cache_capacity=0)
        service.register("skewed", skewed)
        storage = ph2(skewed)
        for name, query in skewed_adaptive_workload():
            text = query_to_text(query)
            naive_plan = compile_query(rewrite_query(query, "direct"), storage)
            naive = answers_to_wire(execute(naive_plan, storage, use_indexes=False).rows)
            for __ in range(3):
                response = service.query("skewed", text)
                assert [list(row) for row in response.answers["approximate"]] == naive, name

    def test_auto_queries_cache_the_algebra_plan(self):
        service = QueryService(answer_cache_capacity=0)
        entry = service.register("emp", employee_database(12, seed=4))
        # Unrestricted negation: the shape the retired cost model sent to
        # Tarskian enumeration.  ``auto`` caches and reuses the algebra plan.
        text = "(x, y) . ~EMP_DEPT(x, y)"
        first = service.query("emp", text)
        stats = service.stats().plan_cache
        assert stats["misses"] == 1 and stats["size"] == 1
        second = service.query("emp", text)
        stats = service.stats().plan_cache
        assert stats["hits"] == 1, "the plan was not served from the plan cache"
        assert first.answers == second.answers
        shape = query_to_text(service._parse(text))
        assert isinstance(service._plans.get((entry.fingerprint, shape)), PlanNode)
        tarski = ApproximateEvaluator(engine="tarski").answers(entry.database, service._parse(text))
        assert first.answer_set("approximate") == tarski


class TestPreloadInvalidation:
    def test_preload_invalidates_exactly_the_matching_snapshot(self):
        service = QueryService(answer_cache_capacity=0)
        entry = service.register("emp", employee_database(12, seed=4))
        other = service.register("other", employee_database(14, seed=5))
        service.query("emp", QUERY)
        service.query("emp", "(x) . EMP_DEPT(x, 'dept0')")
        service.query("other", QUERY)
        assert service.stats().plan_cache["size"] == 3

        dropped = service.preload_statistics("emp", {"relations": {}})
        assert dropped == 2  # exactly the entries of the emp fingerprint
        shape = query_to_text(service._parse(QUERY))
        remaining = set(service._plans.keys())
        assert (entry.fingerprint, shape) not in remaining
        assert (other.fingerprint, shape) in remaining


class TestMalformedWarmup:
    def test_warm_counts_malformed_entries_as_failures(self):
        service = QueryService()
        service.register("emp", employee_database(8, seed=1))
        good = QueryRequest("emp", "(x) . EMP_DEPT(x, 'dept0')")
        report = service.warm([good, {"not": "a request"}, None, "garbage"])
        assert report.total == 4
        assert report.warmed == 1
        assert report.failed == 3
