"""Tests for the service's adaptive feedback loop and plan-cache invalidation.

The invalidation contract under test (the PR 4 satellite): a statistics
update — whether feedback-driven or an explicit ``preload_statistics`` —
invalidates exactly the affected ``(fingerprint, query, engine)``
plan-cache entries, and every re-optimized plan stays byte-identical to
naive evaluation.
"""

import pytest

from repro.logic.printer import query_to_text
from repro.logical.ph import ph2
from repro.physical.algebra import execute
from repro.physical.compiler import compile_query
from repro.physical.statistics import statistics_for
from repro.approx.rewrite import rewrite_query
from repro.service.engine import QueryService
from repro.service.protocol import StatsResponse, answers_to_wire, parse_wire, to_wire
from repro.workloads.generators import (
    employee_database,
    skewed_adaptive_workload,
    skewed_star_database,
)


@pytest.fixture(scope="module")
def skewed():
    return skewed_star_database(
        n_entities=90, n_links=30, n_hubs=3, n_targets=15, facts_per_entity=6, n_hot=3, seed=5
    )


def _service(database, **kwargs):
    service = QueryService(answer_cache_capacity=0, **kwargs)
    service.register("skewed", database)
    return service


def _workload_texts():
    return [(name, query_to_text(query)) for name, query in skewed_adaptive_workload()]


class TestFeedbackLoop:
    def test_divergence_invalidates_exactly_the_executed_entry(self, skewed):
        service = _service(skewed)
        texts = _workload_texts()
        # Prime plans for every query; the first executions observe and the
        # divergent ones drop exactly their own entry.
        for __, text in texts:
            service.query("skewed", text)
        stats = service.stats()
        assert stats.feedback["observations"] > 0
        assert stats.feedback["invalidations"] > 0
        # Only invalidated entries recompile; untouched queries stay cached.
        size_before = stats.plan_cache["size"]
        assert size_before == len(texts) - stats.feedback["invalidations"]

    def test_second_arrival_reoptimizes_and_counts(self, skewed):
        service = _service(skewed)
        __, text = _workload_texts()[0]
        service.query("skewed", text)
        assert service.stats().feedback["invalidations"] == 1
        assert service.stats().feedback["reoptimizations"] == 0
        service.query("skewed", text)
        assert service.stats().feedback["reoptimizations"] == 1
        # The loop converges: further arrivals neither invalidate nor replan.
        service.query("skewed", text)
        service.query("skewed", text)
        final = service.stats().feedback
        assert final["invalidations"] == 1 and final["reoptimizations"] == 1

    def test_reoptimized_answers_stay_byte_identical_to_naive(self, skewed):
        service = _service(skewed)
        storage = ph2(skewed)
        for name, query in skewed_adaptive_workload():
            text = query_to_text(query)
            naive_plan = compile_query(rewrite_query(query, "direct"), storage)
            naive = answers_to_wire(execute(naive_plan, storage, use_indexes=False).rows)
            for __ in range(3):  # observe → re-optimize → steady state
                response = service.query("skewed", text)
                assert [list(row) for row in response.answers["approximate"]] == naive, name

    def test_feedback_can_be_disabled(self, skewed):
        service = _service(skewed, feedback_threshold=None)
        __, text = _workload_texts()[0]
        service.query("skewed", text)
        service.query("skewed", text)
        stats = service.stats()
        assert stats.feedback == {"observations": 0, "invalidations": 0, "reoptimizations": 0}
        assert stats.plan_cache["hits"] == 1

    def test_tarski_requests_produce_no_feedback(self, skewed):
        service = _service(skewed)
        __, text = _workload_texts()[0]
        service.query("skewed", text, engine="tarski")
        assert service.stats().feedback["observations"] == 0


class TestPreloadInvalidation:
    def test_preload_invalidates_exactly_the_matching_snapshot(self):
        database = employee_database(12, seed=4)
        service = QueryService(answer_cache_capacity=0, feedback_threshold=None)
        entry = service.register("emp", database)
        other = service.register("other", employee_database(14, seed=5))
        text = "(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)"
        service.query("emp", text)
        service.query("emp", text, engine="auto")
        service.query("other", text)
        assert service.stats().plan_cache["size"] == 3

        payload = {"observed": {"feedbeef": 1}}
        dropped = service.preload_statistics("emp", payload)
        assert dropped == 2  # exactly the entries of the emp fingerprint
        remaining = set(service._plans.keys())
        assert (entry.fingerprint, text, "algebra") not in remaining
        assert (entry.fingerprint, text, "auto") not in remaining
        assert (other.fingerprint, text, "algebra") in remaining
        # Statistics were actually seeded onto the storage.
        assert statistics_for(entry.storage).observed_rows("feedbeef") == 1
        assert statistics_for(other.storage).observed_rows("feedbeef") is None

    def test_preload_counts_as_invalidation(self):
        database = employee_database(12, seed=4)
        service = QueryService(answer_cache_capacity=0, feedback_threshold=None)
        service.register("emp", database)
        text = "(x) . EMP_DEPT(x, 'dept0')"
        service.query("emp", text)
        service.preload_statistics("emp", {"observed": {}})
        assert service.stats().feedback["invalidations"] == 1


class TestMalformedWarmup:
    def test_warm_counts_malformed_entries_as_failures(self):
        from repro.service.protocol import QueryRequest

        service = QueryService()
        service.register("emp", employee_database(8, seed=1))
        good = QueryRequest("emp", "(x) . EMP_DEPT(x, 'dept0')")
        report = service.warm([good, {"not": "a request"}, None, "garbage"])
        assert report.total == 4
        assert report.warmed == 1
        assert report.failed == 3


class TestWire:
    def test_stats_response_roundtrips_feedback(self, skewed):
        service = _service(skewed)
        __, text = _workload_texts()[0]
        service.query("skewed", text)
        stats = service.stats()
        decoded = parse_wire(to_wire(stats))
        assert decoded.feedback == dict(stats.feedback)

    def test_old_stats_message_without_feedback_still_parses(self):
        payload = to_wire(
            StatsResponse(
                databases=("a",),
                answer_cache={},
                parse_cache={},
                batch={},
                uptime_seconds=1.0,
            )
        )
        del payload["feedback"]
        decoded = parse_wire(payload)
        assert decoded.feedback == {}


class TestAutoRouteCaching:
    def test_tarski_routed_auto_queries_cache_the_decision(self):
        service = QueryService(answer_cache_capacity=0)
        service.register("emp", employee_database(12, seed=4))
        # Unrestricted negation: enumeration beats the compiled plan, so the
        # dispatcher routes to the Tarskian side.
        text = "(x, y) . ~EMP_DEPT(x, y)"
        first = service.query("emp", text, engine="auto")
        stats = service.stats().plan_cache
        assert stats["misses"] == 1 and stats["size"] == 1
        second = service.query("emp", text, engine="auto")
        stats = service.stats().plan_cache
        assert stats["hits"] == 1, "the dispatch decision was not served from the plan cache"
        assert first.answers == second.answers
        tarski = service.query("emp", text, engine="tarski")
        assert tarski.answers == first.answers


class TestConvergence:
    def test_converged_queries_skip_the_recorder(self, skewed):
        service = _service(skewed)
        __, text = _workload_texts()[0]
        service.query("skewed", text)   # observe + invalidate
        service.query("skewed", text)   # re-optimize + observe: nothing new
        with service._registry_lock:
            converged = set(service._converged)
        assert converged, "the re-optimized plan never converged"
        before = service.stats().feedback
        service.query("skewed", text)   # steady state: no bookkeeping at all
        assert service.stats().feedback == before
        with service._registry_lock:
            assert not service._replanned

    def test_two_learned_queries_both_stay_converged(self, skewed):
        """Refreshing known observations must not expire the other query's
        convergence marker (the generation only moves on real changes)."""
        service = _service(skewed)
        texts = [text for __, text in _workload_texts()[:2]]
        for __ in range(3):
            for text in texts:
                service.query("skewed", text)
        with service._registry_lock:
            converged = dict(service._converged)
        assert len(converged) == 2
        for text in texts:
            service.query("skewed", text)
        with service._registry_lock:
            assert dict(service._converged) == converged, "alternating traffic re-expired a marker"
