"""Router behaviour over in-process backends: merging, failover, lifecycle.

These tests run the exact production routing/merging code with
:class:`~repro.cluster.router.LocalBackend` workers, so no sockets or
processes are involved; the multi-process end-to-end path is covered by
``test_cluster_processes.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster.deploy import ClusterConfig, local_router
from repro.cluster.router import ClusterRouter, full_copy_hosts, shard_hosts
from repro.errors import (
    ClusterError,
    ServiceClosedError,
    ServiceUnavailableError,
    UnknownDatabaseError,
)
from repro.service.engine import QueryService
from repro.service.protocol import ErrorResponse, QueryRequest
from repro.workloads.generators import employee_database

QUERIES = [
    "(x, y) . EMP_DEPT(x, y)",  # scatter (split relation)
    "(x) . EMP_SAL(x, 'mid')",  # scatter with a constant
    "(x, y) . DEPT_MGR(x, y)",  # single shard (replicated relation)
    "() . EMP_DEPT('emp0', 'dept0') & DEPT_MGR('dept0', 'emp1')",  # conjunction
    "(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)",  # full-copy fallback
    "(x) . ~DEPT_MGR('dept0', x)",  # replicated-only negation, single shard
    "(x) . EMP_DEPT(x, x)",  # scatter with a repeated variable
]


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
    return local_router(
        {"emp": employee}, shards=3, replicas=2, replication_threshold=64
    )


class TestPlacement:
    def test_shard_hosts_wrap_around(self):
        assert shard_hosts(0, 4, 2) == (0, 1)
        assert shard_hosts(3, 4, 2) == (3, 0)
        assert shard_hosts(1, 4, 1) == (1,)
        assert shard_hosts(0, 1, 3) == (0,)

    def test_full_copy_hosts_are_the_first_workers(self):
        assert full_copy_hosts(4, 2) == (0, 1)
        assert full_copy_hosts(1, 5) == (0,)


class TestByteIdentity:
    @pytest.mark.parametrize("text", QUERIES)
    def test_every_routing_rule_matches_single_process(self, router, single, text):
        for engine in ("algebra", "tarski"):
            clustered = router.execute(QueryRequest("emp", text, "approx", engine))
            direct = single.execute(QueryRequest("emp", text, "approx", engine))
            assert clustered.answers == direct.answers
            assert clustered.arity == direct.arity
            assert clustered.database == "emp"
            assert clustered.fingerprint == direct.fingerprint

    def test_all_rules_were_actually_exercised(self, router, single):
        for text in QUERIES:
            router.execute(QueryRequest("emp", text))
        routing = router.stats().cluster["routing"]
        assert routing["scatter"] >= 3
        assert routing["single_shard"] >= 2
        assert routing["conjunction"] >= 1
        assert routing["full_copy"] >= 1

    def test_batch_through_the_router_is_deduplicated_and_positional(self, router, single):
        requests = [QueryRequest("emp", QUERIES[0]), QueryRequest("emp", QUERIES[2])] * 3
        batch = router.batch(requests)
        assert batch.total == 6
        assert batch.unique == 2
        assert batch.deduplicated == 4
        for request, response in zip(requests, batch.responses):
            assert not isinstance(response, ErrorResponse)
            assert response.answers == single.execute(request).answers

    def test_unknown_database_is_the_usual_error(self, router):
        with pytest.raises(UnknownDatabaseError):
            router.execute(QueryRequest("nope", "(x) . EMP_SAL(x, 'mid')"))

    def test_classify_and_info_work_without_touching_workers(self, router, employee):
        classification = router.classify("(x) . exists y. EMP_DEPT(x, y)")
        assert classification.is_first_order
        info = router.info("emp")
        assert info.name == "emp"
        assert info.fingerprint == employee.fingerprint()
        assert info.constants == len(employee.constants)


class _FlakyBackend:
    """Wraps a backend; fails with a configurable error until revived."""

    def __init__(self, inner):
        self.inner = inner
        self.down = False
        self.error = ServiceUnavailableError("simulated crash")
        self.calls = 0

    def execute(self, request):
        self.calls += 1
        if self.down:
            raise self.error
        return self.inner.execute(request)

    def stats(self):
        if self.down:
            raise self.error
        return self.inner.stats()

    def ping(self):
        return not self.down


def _flaky_router(employee):
    plain = local_router({"emp": employee}, shards=3, replicas=2, replication_threshold=64)
    flaky = [_FlakyBackend(state.backend) for state in plain._workers]
    return ClusterRouter(plain._layouts, flaky, replicas=2), flaky


class TestFailover:
    def test_dead_worker_fails_over_to_replicas_with_identical_answers(self, employee, single):
        router, backends = _flaky_router(employee)
        baseline = {text: router.execute(QueryRequest("emp", text)).answers for text in QUERIES}
        backends[0].down = True
        for text in QUERIES:
            response = router.execute(QueryRequest("emp", text))
            assert response.answers == baseline[text]
            assert response.answers == single.execute(QueryRequest("emp", text)).answers
        assert router.stats().cluster["failovers"] >= 1

    def test_health_check_marks_and_revives(self, employee):
        router, backends = _flaky_router(employee)
        assert router.health_check() == {0: True, 1: True, 2: True}
        backends[1].down = True
        assert router.health_check()[1] is False
        backends[1].down = False
        assert router.health_check()[1] is True

    def test_all_replicas_dead_is_a_clear_error(self, employee):
        router, backends = _flaky_router(employee)
        for backend in backends:
            backend.down = True
        with pytest.raises(ClusterError, match="no live replica"):
            router.execute(QueryRequest("emp", QUERIES[0]))

    def test_protocol_garbage_fails_over_like_an_outage(self, employee, single):
        # A worker answering with something that is not our protocol (wedged
        # process, reused port) must cost a replica hop, not the answer.
        from repro.errors import ProtocolError

        router, backends = _flaky_router(employee)
        backends[0].down = True
        backends[0].error = ProtocolError("non-JSON response: <html>nginx</html>")
        for text in QUERIES:
            response = router.execute(QueryRequest("emp", text))
            assert response.answers == single.execute(QueryRequest("emp", text)).answers

    def test_application_errors_do_not_fail_over(self, employee):
        # A parse error is deterministic: a replica would say the same, so
        # it must reach the caller instead of marking workers dead.
        from repro.errors import ParseError, ReproError

        router, backends = _flaky_router(employee)
        with pytest.raises((ParseError, ReproError)):
            router.execute(QueryRequest("emp", "syntax error ("))
        assert router.stats().cluster["failovers"] == 0

    def test_dead_workers_are_deprioritized_not_retried_first(self, employee):
        router, backends = _flaky_router(employee)
        backends[0].down = True
        # First call discovers the outage (one wasted probe)...
        router.execute(QueryRequest("emp", QUERIES[4]))  # full copy lives on 0 and 1
        probes = backends[0].calls
        # ...subsequent calls go straight to the live replica.
        router.execute(QueryRequest("emp", QUERIES[4]))
        assert backends[0].calls == probes


class TestRouterLifecycle:
    def test_close_is_terminal_like_the_service(self, router):
        router.batch([QueryRequest("emp", QUERIES[0])])
        router.close()
        with pytest.raises(ServiceClosedError):
            router.close()
        with pytest.raises(ServiceClosedError):
            router.batch([QueryRequest("emp", QUERIES[0])])

    def test_warm_replays_a_stream_and_reports(self, router):
        requests = [QueryRequest("emp", QUERIES[0]), QueryRequest("emp", QUERIES[0])]
        report = router.warm(requests + [QueryRequest("emp", "syntax error (")])
        assert report.total == 3
        assert report.warmed == 1
        assert report.already_cached == 1
        assert report.failed == 1

    def test_layouts_must_match_worker_count(self, employee):
        plain = local_router({"emp": employee}, shards=3, replication_threshold=64)
        backends = [state.backend for state in plain._workers]
        with pytest.raises(ClusterError, match="one primary shard per worker"):
            ClusterRouter(plain._layouts, backends[:2])


class TestConfig:
    def test_config_and_overrides_are_mutually_exclusive(self, employee):
        with pytest.raises(ClusterError):
            local_router({"emp": employee}, config=ClusterConfig(shards=2), shards=3)

    def test_single_worker_router_still_answers(self, employee, single):
        router = local_router({"emp": employee}, shards=1)
        for text in QUERIES:
            assert (
                router.execute(QueryRequest("emp", text)).answers
                == single.execute(QueryRequest("emp", text)).answers
            )
        assert router.stats().cluster["routing"]["single_shard"] == len(QUERIES)
