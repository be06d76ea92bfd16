"""E18 — resilience: chaos correctness and overload shedding.

The resilience layer's pitch is a single invariant, checked here two ways:

* **faults may cost availability, never correctness** — an in-process
  cluster whose workers misbehave on a *scripted, seeded* schedule
  (staggered refuse outages on each worker with a deliberate overlap where
  a whole shard goes dark, plus background reply drops and garbles) must
  return, for every request it answers, exactly the single-process answer
  — and on the exact route, the Tarskian ground truth of Theorem 1.  The
  run asserts the machinery actually engaged: retries, failovers, breaker
  trips and degraded stale-cache serves are all required to be non-zero,
  and the post-outage pass must be fully available and non-degraded;
* **overload is shed honestly** — a saturated HTTP server sheds with typed
  503s (never hangs, never answers wrong) and serves the same requests
  correctly once the load passes.

``REPRO_E18_SMOKE=1`` switches to the reduced CI configuration (fewer
concurrent clients in the overload run).
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import closing

import pytest

from repro.cluster.deploy import local_router
from repro.errors import ClusterError, DeadlineExceededError, OverloadedError
from repro.logic.parser import parse_query
from repro.logical.exact import certain_answers
from repro.resilience import FaultPlan, deadline_scope
from repro.resilience.faults import FaultingBackend
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, answers_from_wire
from repro.service.server import running_server
from repro.workloads.generators import random_cw_database

SMOKE = os.environ.get("REPRO_E18_SMOKE", "").strip() not in ("", "0")

PREDICATES = {"P": 1, "R": 2, "S": 2}
INSTANCE = dict(n_constants=5, n_facts=14, unknown_fraction=0.4, seed=11)

#: The chaos pool: every routing rule (single-shard, scatter, negation,
#: full-copy fallback) appears, so merges are stressed, not just fast paths.
QUERY_POOL = [
    "(x) . P(x)",
    "(x, y) . R(x, y)",
    "(x) . exists y. R(x, y) & P(y)",
    "(x) . ~P(x)",
    "() . exists x. R(x, x)",
    "(x) . exists y. S(x, y)",
]

OVERLOAD_CLIENTS = 4 if SMOKE else 8
OVERLOAD_REQUESTS = 3


def _report(bench_reports):
    return bench_reports(
        "E18", "resilience: chaos correctness and overload shedding",
        mode="smoke" if SMOKE else "full",
    )


def _database():
    return random_cw_database(predicates=PREDICATES, **INSTANCE)


def _single(database) -> QueryService:
    service = QueryService()
    service.register("db", database)
    return service


#: The scripted chaos acts.  A faulting backend's plan is swapped between
#: acts, so the script is act-deterministic regardless of how many executes
#: each worker happens to receive (retries and breaker skips make per-worker
#: operation counts drift; fixed operation-index windows would not).
#:
#: * ``noise`` — both workers up, with seeded reply drops and garbles: the
#:   ambiguous ``sent_request=True`` cases the retry policy must replay
#:   without changing answers.  Also warms the degraded stale cache.
#: * ``outage`` — worker 0 refuses everything, worker 1 stays clean: every
#:   request fails over and must still answer fresh and correct.
#: * ``dark`` — both workers refuse everything: retry rounds burn out,
#:   breakers trip, and every (previously seen) request is served from the
#:   stale cache, flagged degraded, byte-identical.
#: * ``recovery`` — faults exhausted, health checks heal the breakers:
#:   full, non-degraded availability is required again.
CHAOS_ACTS = (
    ("noise", {0: dict(seed=18, rates={"drop": 0.15}), 1: dict(seed=81, rates={"garble": 0.15})}),
    ("outage", {0: dict(rates={"refuse": 1.0}), 1: dict()}),
    ("dark", {0: dict(rates={"refuse": 1.0}), 1: dict(rates={"refuse": 1.0})}),
    ("recovery", {0: dict(), 1: dict()}),
)


@pytest.mark.experiment("E18")
def test_chaos_costs_availability_never_correctness(experiment_log, bench_reports):
    database = _database()
    faulting: dict[int, FaultingBackend] = {}

    def wrap(backend, index):
        faulting[index] = FaultingBackend(backend, FaultPlan())
        return faulting[index]

    router = local_router(
        {"db": database},
        shards=2,
        replicas=2,
        replication_threshold=0,
        degraded="stale_cache",
        backend_wrapper=wrap,
    )
    # Tighten the breakers so the scripted dark act trips them within the
    # run (the default threshold is sized for long-lived servers).
    for state in router._workers:
        state.breaker.failure_threshold = 2
    single = _single(database)
    truths = {
        shape: certain_answers(database, parse_query(shape)) for shape in QUERY_POOL
    }
    counts = {"answered": 0, "degraded": 0, "unavailable": 0, "wrong": 0}
    injected: dict[str, int] = {}
    try:
        for act, specs in CHAOS_ACTS:
            for index, spec in specs.items():
                faulting[index].plan = FaultPlan(**spec)
            if act == "recovery":
                # The outage is over: heal the breakers the way an operator
                # (or the health loop) would, then demand full availability.
                assert router.health_check() == {0: True, 1: True}
            for shape in QUERY_POOL:
                request = QueryRequest("db", shape, "both", "algebra", False)
                try:
                    response = router.execute(request)
                except ClusterError:
                    counts["unavailable"] += 1
                    assert act == "dark", f"availability lost outside the dark act: {shape!r} ({act})"
                    continue
                counts["answered"] += 1
                if response.degraded:
                    counts["degraded"] += 1
                    assert act == "dark", f"degraded answer outside the dark act: {shape!r} ({act})"
                direct = single.execute(request)
                if (
                    response.answers != direct.answers
                    or answers_from_wire(response.answers["exact"]) != truths[shape]
                ):
                    counts["wrong"] += 1
            for index, plan in ((i, f.plan) for i, f in faulting.items()):
                for kind, n in plan.injected().items():
                    injected[f"{act}_w{index}_{kind}"] = n
        stats = router.stats().cluster
        counters = router.metrics().counters
    finally:
        router.close()
        single.close()
    engaged = {
        "retries": counters.get("router.retries", 0),
        "failovers": stats["failovers"],
        "breaker_trips": counters.get("router.breaker_trips", 0),
        "breaker_skips": counters.get("router.breaker_skips", 0),
        "degraded_served": counters.get("router.degraded_served", 0),
    }
    summary = {"experiment": "E18", **counts, **engaged, "injected": injected, "smoke_mode": SMOKE}
    experiment_log.append(("E18", {"measurement": "scripted chaos", **counts, **engaged}))
    print(f"\nBENCH-E18-SUMMARY {json.dumps(summary, sort_keys=True)}")
    report = _report(bench_reports)
    report.metric("wrong_answers", counts["wrong"], unit="count", higher_is_better=False, required=0)
    report.metric("answered", counts["answered"], unit="count")
    report.metric("unavailable", counts["unavailable"], unit="count", higher_is_better=False)
    report.metric("retries", engaged["retries"], unit="count", required=1)
    report.metric("failovers", engaged["failovers"], unit="count", required=1)
    report.metric("breaker_trips", engaged["breaker_trips"], unit="count", required=1)
    report.metric("degraded_served", engaged["degraded_served"], unit="count", required=1)

    assert counts["wrong"] == 0, f"{counts['wrong']} chaos answers diverge from ground truth"
    assert counts["answered"] > 0, "the chaos run answered nothing — the script is too dark"
    assert sum(n for name, n in injected.items() if name.endswith("_refuse")) > 0, (
        "the scripted outage never fired"
    )
    for mechanism in ("retries", "failovers", "breaker_trips", "degraded_served"):
        assert engaged[mechanism] > 0, f"chaos never engaged {mechanism} — the script is too gentle"


@pytest.mark.experiment("E18")
def test_overload_sheds_typed_and_recovers(experiment_log, bench_reports):
    database = _database()
    service = _single(database)
    request_shapes = QUERY_POOL[:3]
    try:
        with running_server(service, max_in_flight=1, max_queue_depth=0) as server:
            expected = {}
            with closing(ServiceClient(server.base_url)) as client:
                for shape in request_shapes:
                    expected[shape] = client.query("db", shape).answers

            # Saturate: pin the only slot, then fire concurrent requests —
            # every one must shed with a *typed* 503, none may hang or lie.
            server.admission.acquire()
            sheds, wrong, lock = [0], [0], threading.Lock()

            def fire():
                with closing(ServiceClient(server.base_url)) as client:
                    for shape in request_shapes[:OVERLOAD_REQUESTS]:
                        try:
                            response = client.query("db", shape)
                            if response.answers != expected[shape]:
                                with lock:
                                    wrong[0] += 1
                        except OverloadedError as error:
                            assert error.retry_after_seconds is None or error.retry_after_seconds > 0
                            with lock:
                                sheds[0] += 1

            threads = [threading.Thread(target=fire) for __ in range(OVERLOAD_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            server.admission.release()

            with closing(ServiceClient(server.base_url)) as client:
                # A dead budget is refused before the wire, typed.
                with deadline_scope(0.0001):
                    with pytest.raises(DeadlineExceededError):
                        client.query("db", request_shapes[0])
                # After the load passes, the same requests answer correctly.
                for shape in request_shapes:
                    assert client.query("db", shape).answers == expected[shape]
                server_sheds = client.metrics().counters.get("admission.sheds", 0)
    finally:
        service.close()

    experiment_log.append(
        ("E18", {
            "measurement": "overload shedding",
            "client_sheds": sheds[0],
            "server_sheds": server_sheds,
            "wrong": wrong[0],
        })
    )
    report = _report(bench_reports)
    report.metric("sheds", server_sheds, unit="count", required=1)
    report.metric("overload_wrong_answers", wrong[0], unit="count", higher_is_better=False, required=0)
    assert wrong[0] == 0, "an overloaded server returned a wrong answer"
    assert sheds[0] > 0 and server_sheds > 0, "saturation never shed — admission control is inert"

