"""Router resilience: retries, circuit breakers, shed handling, degraded mode.

These tests script failures per worker (rather than drawing them from a
seeded plan, which the chaos property tests do) so each router mechanism
is pinned in isolation: when retries fire, when a breaker opens and what
closes it, which errors are and are not retried, and what the degraded
stale-cache mode may serve.
"""

from __future__ import annotations

import pytest

from repro.cluster.deploy import local_router
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    OverloadedError,
    ServiceUnavailableError,
)
from repro.resilience.retry import BREAKER_CLOSED, BREAKER_OPEN, BackoffPolicy
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest
from repro.workloads.generators import random_cw_database

PREDICATES = {"P": 1, "R": 2}

REQUEST = QueryRequest("db", "(x) . P(x)", "approx", "algebra", False)


def _database(seed: int = 0):
    return random_cw_database(
        n_constants=4, predicates=PREDICATES, n_facts=10, unknown_fraction=0.3, seed=seed
    )


class _Scripted:
    """A backend wrapper that raises scripted errors for its first executes."""

    def __init__(self, backend, errors=()):
        self._backend = backend
        self.errors = list(errors)
        self.executes = 0

    def execute(self, request):
        self.executes += 1
        if self.errors:
            error = self.errors.pop(0)
            if isinstance(error, ServiceUnavailableError) and error.sent_request:
                # A "drop": the work happened, only the reply was lost.
                self._backend.execute(request)
            raise error
        return self._backend.execute(request)

    def __getattr__(self, name):
        return getattr(self._backend, name)


class TestRetry:
    def test_a_failed_round_is_retried_and_recovers(self):
        database = _database()
        scripted = {}

        def wrap(backend, index):
            scripted[index] = _Scripted(
                backend, [ServiceUnavailableError("injected refuse", sent_request=False)]
            )
            return scripted[index]

        router = local_router(
            {"db": database}, shards=2, replicas=1, replication_threshold=0, backend_wrapper=wrap
        )
        single = QueryService()
        single.register("db", database)
        try:
            # Every shard's only replica fails its first execute: round 0
            # fails outright, the backoff retry answers identically.
            response = router.execute(REQUEST)
            assert response.answers == single.execute(REQUEST).answers
            assert router.metrics().counters["router.retries"] >= 1
        finally:
            router.close()
            single.close()

    def test_retired_env_switch_keeps_the_retrying_router(self, monkeypatch):
        # REPRO_NO_RESILIENCE once restored a single-pass router that failed
        # on the first refusal; the switch is gone and retries always run.
        monkeypatch.setenv("REPRO_NO_RESILIENCE", "1")
        database = _database()

        def wrap(backend, index):
            return _Scripted(backend, [ServiceUnavailableError("down", sent_request=False)])

        router = local_router(
            {"db": database}, shards=2, replicas=1, replication_threshold=0, backend_wrapper=wrap
        )
        try:
            router.execute(REQUEST)
            assert router.metrics().counters["router.retries"] >= 1
            assert set(router.stats().cluster["breakers"]) == {"0", "1"}
        finally:
            router.close()

    def test_ambiguous_drops_are_replayed_without_changing_answers(self):
        database = _database()

        def wrap(backend, index):
            return _Scripted(backend, [ServiceUnavailableError("injected drop", sent_request=True)])

        router = local_router(
            {"db": database}, shards=2, replicas=1, replication_threshold=0, backend_wrapper=wrap
        )
        single = QueryService()
        single.register("db", database)
        try:
            # The first attempt executed server-side before the reply was
            # lost; the replay hits the worker's answer cache and must be
            # byte-identical — the idempotence the retry policy relies on.
            response = router.execute(REQUEST)
            assert response.answers == single.execute(REQUEST).answers
        finally:
            router.close()
            single.close()

    def test_exhausted_rounds_raise_a_cluster_error_naming_the_schedule(self):
        database = _database()

        def wrap(backend, index):
            return _Scripted(backend, [ServiceUnavailableError("still down", sent_request=False)] * 10)

        router = local_router(
            {"db": database}, shards=2, replicas=1, replication_threshold=0, backend_wrapper=wrap
        )
        try:
            with pytest.raises(ClusterError, match="after 3 rounds"):
                router.execute(REQUEST)
        finally:
            router.close()

    def test_deadline_exceeded_is_never_retried(self):
        database = _database()
        scripted = {}

        def wrap(backend, index):
            scripted[index] = _Scripted(backend, [DeadlineExceededError("budget died in the worker")])
            return scripted[index]

        router = local_router(
            {"db": database}, shards=2, replicas=1, replication_threshold=0, backend_wrapper=wrap
        )
        try:
            with pytest.raises(DeadlineExceededError):
                router.execute(REQUEST)
            # One attempt on one worker; no failover pass, no retry rounds.
            assert sum(backend.executes for backend in scripted.values()) == 1
            assert "router.retries" not in router.metrics().counters
        finally:
            router.close()


class TestOverload:
    def test_shedding_worker_is_not_marked_dead(self):
        database = _database()
        sheds = {}

        def wrap(backend, index):
            errors = (
                [OverloadedError("shedding", retry_after_seconds=0.01)] if index == 0 else []
            )
            sheds[index] = _Scripted(backend, errors)
            return sheds[index]

        # replicas=2: every shard is hosted by both workers, so worker 1
        # absorbs what worker 0 sheds within the same pass.
        router = local_router(
            {"db": database}, shards=2, replicas=2, replication_threshold=0, backend_wrapper=wrap
        )
        single = QueryService()
        single.register("db", database)
        try:
            response = router.execute(REQUEST)
            assert response.answers == single.execute(REQUEST).answers
            stats = router.stats()
            assert stats.cluster["failovers"] == 0  # a shed is not a fault
            assert stats.cluster["workers"]["0"]["alive"] is True
            assert router.metrics().counters["router.worker_sheds"] >= 1
        finally:
            router.close()
            single.close()


def _dark_cluster():
    """A 2-worker cluster where *every* worker refuses every request.

    A single dead worker never trips its breaker here by design: the sticky
    dead-mark reorders the healthy replica first, so the dead worker gets
    no traffic (and no failure run) until a health check revives it.  The
    state breakers exist for is the *dark shard* — all replicas down, every
    retry round re-attempting (and re-timing-out on) every candidate.
    """
    database = _database()
    scripted = {}

    def wrap(backend, index):
        scripted[index] = _Scripted(
            backend, [ServiceUnavailableError("down", sent_request=False)] * 1000
        )
        return scripted[index]

    router = local_router(
        {"db": database}, shards=2, replicas=2, replication_threshold=0, backend_wrapper=wrap
    )
    # Tighten the breakers so the test trips them within one request's
    # retry schedule, and park the reset far away so nothing half-opens.
    for state in router._workers:
        state.breaker.failure_threshold = 2
        state.breaker.reset_after_seconds = 60.0
    return database, scripted, router


class TestBreakers:
    def test_breakers_open_on_a_dark_cluster_then_skip(self):
        __, scripted, router = _dark_cluster()
        try:
            with pytest.raises(ClusterError):
                router.execute(REQUEST)
            stats = router.stats()
            for worker in ("0", "1"):
                assert stats.cluster["breakers"][worker]["state"] == BREAKER_OPEN
                assert stats.cluster["breakers"][worker]["trips"] == 1
            counters = router.metrics().counters
            assert counters["router.breaker_trips"] == 2
            # Open breakers turn further requests into local skips: the next
            # request fails fast with zero transport attempts.
            attempts = {index: backend.executes for index, backend in scripted.items()}
            with pytest.raises(ClusterError):
                router.execute(REQUEST)
            assert {index: backend.executes for index, backend in scripted.items()} == attempts
            assert router.metrics().counters["router.breaker_skips"] >= 1
            # The breaker gauges are published for dashboards.
            assert router.metrics().gauges["breaker.state.worker0"] == 1.0
            assert router.metrics().gauges["breaker.state.worker1"] == 1.0
        finally:
            router.close()

    def test_health_check_heals_open_breakers(self):
        database, scripted, router = _dark_cluster()
        single = QueryService()
        single.register("db", database)
        try:
            with pytest.raises(ClusterError):
                router.execute(REQUEST)
            assert router.stats().cluster["breakers"]["0"]["state"] == BREAKER_OPEN
            for backend in scripted.values():
                backend.errors.clear()  # the cluster recovers...
            assert router.health_check() == {0: True, 1: True}
            # ...and successful probes close the breakers immediately,
            # without waiting out the reset interval.
            for worker in ("0", "1"):
                assert router.stats().cluster["breakers"][worker]["state"] == BREAKER_CLOSED
            assert router.execute(REQUEST).answers == single.execute(REQUEST).answers
        finally:
            router.close()
            single.close()


class TestDegradedMode:
    def test_stale_cache_serves_flagged_answers_when_all_replicas_die(self):
        database = _database()
        scripted = {}

        def wrap(backend, index):
            scripted[index] = _Scripted(backend)
            return scripted[index]

        router = local_router(
            {"db": database},
            shards=2,
            replicas=1,
            replication_threshold=0,
            degraded="stale_cache",
            backend_wrapper=wrap,
        )
        try:
            fresh = router.execute(REQUEST)
            assert fresh.degraded is False
            # Now every worker refuses everything, forever.
            for backend in scripted.values():
                backend.errors = [ServiceUnavailableError("dead", sent_request=False)] * 1000
            stale = router.execute(REQUEST)
            assert stale.degraded is True
            assert stale.cached is True
            assert stale.answers == fresh.answers  # byte-identical, just flagged
            assert router.metrics().counters["router.degraded_served"] == 1
            # A request never answered before has nothing stale to serve.
            with pytest.raises(ClusterError):
                router.execute(QueryRequest("db", "(x, y) . R(x, y)", "approx", "algebra", False))
        finally:
            router.close()

    def test_unknown_degraded_mode_is_rejected(self):
        with pytest.raises(ClusterError, match="unknown degraded mode"):
            local_router({"db": _database()}, shards=2, replicas=1, degraded="guesswork")


class TestRetryPolicy:
    def test_explicit_retry_policy_is_honored(self):
        database = _database()
        calls = {"n": 0}

        def wrap(backend, index):
            calls["n"] += 1
            return _Scripted(backend, [ServiceUnavailableError("down", sent_request=False)] * 10)

        router = local_router({"db": database}, shards=2, replicas=1, replication_threshold=0)
        router.close()
        # Construct a router directly with a 2-round policy and verify the
        # schedule length shows up in the failure message.
        from repro.cluster.router import ClusterRouter, LocalBackend

        service = QueryService()
        service.register("db", database)
        layout_router = local_router(
            {"db": database},
            shards=2,
            replicas=1,
            replication_threshold=0,
            backend_wrapper=wrap,
        )
        layouts = layout_router._layouts
        backends = [state.backend for state in layout_router._workers]
        direct = ClusterRouter(
            layouts, backends, replicas=1, retry_policy=BackoffPolicy(rounds=2, base_ms=1.0)
        )
        try:
            with pytest.raises(ClusterError, match="after 2 rounds"):
                direct.execute(REQUEST)
        finally:
            direct.close()
            layout_router.close()
            service.close()
