"""Router resilience: retries, circuit breakers, shed handling, degraded mode.

Most of these tests script failures per worker (rather than drawing them
from a seeded plan, which the chaos property tests do) so each router
mechanism is pinned in isolation: when retries fire, when a breaker opens
and what closes it, which errors are and are not retried, and what the
degraded stale-cache mode may serve.  The scripted chaos run at the end
strings the mechanisms together and checks the forensic trail they leave
in the structured event log.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.deploy import local_router
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    OverloadedError,
    ServiceUnavailableError,
)
from repro.logic.parser import parse_query
from repro.logical.exact import certain_answers
from repro.observability import tracing
from repro.observability.events import (
    EVENT_SINK_ENV,
    default_log,
    reset_default_log,
    validate_event,
)
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultingBackend
from repro.resilience.retry import BREAKER_CLOSED, BREAKER_OPEN, BackoffPolicy
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, answers_from_wire
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

    def test_prepared_executions_are_served_stale_too(self):
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
            statement = router.prepare("db", "(x) . R(x, $y)")
            fresh = router.execute_prepared(statement.statement_id, {"y": "c0"})
            assert fresh.degraded is False
            assert fresh.answers["approximate"]
            for backend in scripted.values():
                backend.errors = [ServiceUnavailableError("dead", sent_request=False)] * 1000
            stale = router.execute_prepared(statement.statement_id, {"y": "c0"})
            assert stale.degraded is True
            assert stale.cached is True
            assert stale.answers == fresh.answers
            # The bound text is the same request ad hoc: one stale entry.
            adhoc = router.execute(QueryRequest("db", fresh.query, "approx", "algebra", False))
            assert adhoc.degraded is True
            assert adhoc.answers == fresh.answers
            assert router.metrics().counters["router.degraded_served"] == 2
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


def _faulting_router(database, **options):
    """A 2-worker, 2-replica router whose backends inject from swappable plans."""
    faulting: dict[int, FaultingBackend] = {}

    def wrap(backend, index):
        faulting[index] = FaultingBackend(backend, FaultPlan())
        return faulting[index]

    router = local_router(
        {"db": database},
        shards=2,
        replicas=2,
        replication_threshold=0,
        backend_wrapper=wrap,
        **options,
    )
    return router, faulting


#: The scripted acts.  Each act swaps every worker's fault plan, so the
#: script is act-deterministic however many executes each worker receives
#: (retries and breaker skips make per-worker operation counts drift).
#:
#: * ``noise`` — both workers up, with seeded reply drops and garbles;
#: * ``outage`` — worker 0 refuses everything: every request fails over;
#: * ``dark`` — both workers refuse everything: breakers trip, and what was
#:   answered before is served from the stale cache, flagged degraded;
#: * ``recovery`` — faults gone, health checks heal the breakers.
CHAOS_ACTS = (
    ("noise", {0: dict(seed=18, rates={"drop": 0.15}), 1: dict(seed=81, rates={"garble": 0.15})}),
    ("outage", {0: dict(rates={"refuse": 1.0}), 1: dict()}),
    ("dark", {0: dict(rates={"refuse": 1.0}), 1: dict(rates={"refuse": 1.0})}),
    ("recovery", {0: dict(), 1: dict()}),
)

#: Every routing rule appears: single-shard, scatter, negation, fallback.
CHAOS_SHAPES = [
    "(x) . P(x)",
    "(x, y) . R(x, y)",
    "(x) . exists y. R(x, y) & P(y)",
    "(x) . ~P(x)",
    "() . exists x. R(x, x)",
    "(x) . exists y. S(x, y)",
]


class TestScriptedChaos:
    def test_faults_cost_availability_never_correctness_and_leave_a_trail(self):
        database = random_cw_database(
            n_constants=5, predicates={"P": 1, "R": 2, "S": 2}, n_facts=14,
            unknown_fraction=0.4, seed=11,
        )
        router, faulting = _faulting_router(database, degraded="stale_cache")
        # Tighten the breakers so the dark act trips them within the run.
        for state in router._workers:
            state.breaker.failure_threshold = 2
        single = QueryService()
        single.register("db", database)
        truths = {shape: certain_answers(database, parse_query(shape)) for shape in CHAOS_SHAPES}
        trace_ids: set[str] = set()
        refused = 0
        reset_default_log()
        try:
            for act, specs in CHAOS_ACTS:
                for index, spec in specs.items():
                    faulting[index].plan = FaultPlan(**spec)
                if act == "recovery":
                    assert router.health_check() == {0: True, 1: True}
                for shape in CHAOS_SHAPES:
                    request = QueryRequest("db", shape, "both", "algebra", False)
                    with tracing.trace(f"chaos {act}") as trace:
                        trace_ids.add(trace.trace_id)
                        try:
                            response = router.execute(request)
                        except ClusterError:
                            assert act == "dark", f"availability lost outside the dark act: {shape!r} ({act})"
                            continue
                    assert response.degraded == (act == "dark"), (shape, act)
                    assert response.answers == single.execute(request).answers, (shape, act)
                    assert answers_from_wire(response.answers["exact"]) == truths[shape], (shape, act)
                refused += sum(backend.plan.injected().get("refuse", 0) for backend in faulting.values())
            counters = router.metrics().counters
            failovers = router.stats().cluster["failovers"]
            records = default_log().tail()
        finally:
            router.close()
            single.close()
            reset_default_log()

        assert refused > 0, "the scripted outage never fired"
        assert failovers > 0
        for counter in ("router.retries", "router.breaker_trips", "router.degraded_served"):
            assert counters.get(counter, 0) > 0, f"chaos never engaged {counter}"
        by_kind: dict[str, list[dict]] = {}
        for record in records:
            validate_event(record)
            by_kind.setdefault(record["kind"], []).append(record)
        for kind in ("router.retry", "router.failover", "router.degraded_serve"):
            assert by_kind.get(kind), f"chaos left no {kind!r} event"
            for record in by_kind[kind]:
                assert record["trace_id"] in trace_ids, f"{kind} event {record['seq']} has no request trace"
        # Breaker events may fire from health probes, outside any request trace.
        assert by_kind.get("breaker.tripped"), "chaos left no 'breaker.tripped' event"

    def test_an_outage_leaves_only_schema_valid_records_in_the_sink(self, tmp_path, monkeypatch):
        sink = tmp_path / "events.ndjson"
        monkeypatch.setenv(EVENT_SINK_ENV, str(sink))
        reset_default_log()
        router, faulting = _faulting_router(_database(seed=11), answer_cache_capacity=0)
        faulting[0].plan = FaultPlan(rates={"refuse": 1.0})
        try:
            for __ in range(5):
                for text in ("(x) . P(x)", "(x, y) . R(x, y)", "(x) . ~P(x)"):
                    try:
                        router.execute(QueryRequest("db", text, "approx", "algebra", False))
                    except ClusterError:
                        pass
        finally:
            router.close()
            reset_default_log()  # closes (and so flushes) the sink
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        assert records, "the outage left the event sink empty"
        for record in records:
            validate_event(record)
        assert any(record["kind"].startswith("router.") for record in records)
