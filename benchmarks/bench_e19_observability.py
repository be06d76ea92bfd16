"""E19 — observability: forensic completeness, flight recorder, zero-cost off.

The forensic layer's pitch mirrors the resilience layer's: it must be
*complete when engaged* and *free when idle*.  Three checks:

* **every fault leaves a forensic trail** — a scripted, seeded chaos run
  (the E18 acts: noise, outage, dark, recovery) must surface every engaged
  mechanism — retries, failovers, breaker trips, degraded serves — as
  schema-valid ``repro-event/v1`` records in the structured event log, and
  the per-request events must correlate with the request's trace id;
* **slow and failing requests are captured whole** — with the slow
  threshold at zero every request lands in the flight recorder carrying a
  complete resource account (``repro-cost/v1``), the error entry carries
  its typed error, and the captured traces render to a loadable Chrome
  trace-event document;
* **idle forensics are free** — with no active trace, no active account
  and ``profiler=None``, the E14 join-heavy workload must run within
  ``DISABLED_OVERHEAD_LIMIT`` (the committed 5% bound) of the bare
  executor, min-of-N per side to strip scheduler noise.

``REPRO_E19_SMOKE=1`` switches to the reduced CI configuration.
"""

from __future__ import annotations

import json
import os
from contextlib import closing

import pytest

from repro.approx.rewrite import rewrite_query
from repro.cluster.deploy import local_router
from repro.errors import ClusterError, ReproError
from repro.harness.experiments import best_of, median
from repro.logical.ph import ph2
from repro.observability import tracing
from repro.observability.events import default_log, reset_default_log, validate_event
from repro.observability.export import chrome_trace_events
from repro.physical.algebra import execute
from repro.physical.compiler import compile_query
from repro.physical.optimizer import optimize
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultingBackend
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest
from repro.service.server import running_server
from repro.workloads.generators import (
    EMPLOYEE_PREDICATES,
    employee_database,
    join_heavy_workload,
    random_cw_database,
)

SMOKE = os.environ.get("REPRO_E19_SMOKE", "").strip() not in ("", "0")

PREDICATES = {"P": 1, "R": 2, "S": 2}
INSTANCE = dict(n_constants=5, n_facts=14, unknown_fraction=0.4, seed=11)

QUERY_POOL = [
    "(x) . P(x)",
    "(x, y) . R(x, y)",
    "(x) . exists y. R(x, y) & P(y)",
    "(x) . ~P(x)",
    "() . exists x. R(x, x)",
    "(x) . exists y. S(x, y)",
]

#: The event kinds the chaos script is required to leave in the log, and
#: whether each must correlate with a request's trace id (breaker events
#: can fire from health probes, which run outside any request trace).
REQUIRED_EVENT_KINDS = {
    "router.retry": True,
    "router.failover": True,
    "router.degraded_serve": True,
    "breaker.tripped": False,
}

#: The same scripted acts as E18 — the fault schedule is the fixture, the
#: *event log* is now the thing under test.
CHAOS_ACTS = (
    ("noise", {0: dict(seed=18, rates={"drop": 0.15}), 1: dict(seed=81, rates={"garble": 0.15})}),
    ("outage", {0: dict(rates={"refuse": 1.0}), 1: dict()}),
    ("dark", {0: dict(rates={"refuse": 1.0}), 1: dict(rates={"refuse": 1.0})}),
    ("recovery", {0: dict(), 1: dict()}),
)

N_EMPLOYEES = 60
OVERHEAD_REPEATS = 4 if SMOKE else 5
#: The committed bound: fully-disabled forensics cost at most 5% (E14's
#: telemetry bound, now covering events + accounting + recorder too).
DISABLED_OVERHEAD_LIMIT = 1.05


def _report(bench_reports):
    return bench_reports(
        "E19", "observability: forensic completeness, flight recorder, zero-cost off",
        mode="smoke" if SMOKE else "full",
    )


@pytest.mark.experiment("E19")
def test_chaos_leaves_a_complete_event_trail(experiment_log, bench_reports):
    database = random_cw_database(predicates=PREDICATES, **INSTANCE)
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
    for state in router._workers:
        state.breaker.failure_threshold = 2
    reset_default_log()
    trace_ids: set[str] = set()
    injected: dict[str, int] = {}
    answered = 0
    try:
        for act, specs in CHAOS_ACTS:
            for index, spec in specs.items():
                faulting[index].plan = FaultPlan(**spec)
            if act == "recovery":
                assert router.health_check() == {0: True, 1: True}
            for shape in QUERY_POOL:
                request = QueryRequest("db", shape, "both", "algebra", False)
                with tracing.trace(f"chaos {act}") as trace:
                    trace_ids.add(trace.trace_id)
                    try:
                        router.execute(request)
                        answered += 1
                    except ClusterError:
                        assert act == "dark", f"availability lost outside the dark act ({act})"
            for index, plan in ((i, f.plan) for i, f in faulting.items()):
                for kind, n in plan.injected().items():
                    injected[f"{act}_w{index}_{kind}"] = injected.get(f"{act}_w{index}_{kind}", 0) + n
        records = default_log().tail()
        stats = default_log().stats()
    finally:
        router.close()
        reset_default_log()

    by_kind: dict[str, list[dict]] = {}
    for record in records:
        validate_event(record)  # every record in the log is schema-valid
        by_kind.setdefault(record["kind"], []).append(record)
    correlated = sum(1 for r in records if r["trace_id"] in trace_ids)

    summary = {
        "experiment": "E19",
        "answered": answered,
        "events_logged": stats["emitted"],
        "events_dropped": stats["dropped"],
        "correlated": correlated,
        "kinds": {kind: len(rows) for kind, rows in sorted(by_kind.items())},
        "smoke_mode": SMOKE,
    }
    experiment_log.append(
        ("E19", {
            "measurement": "chaos event trail",
            "answered": answered,
            "events": stats["emitted"],
            "correlated": correlated,
            **{kind: len(by_kind.get(kind, ())) for kind in REQUIRED_EVENT_KINDS},
        })
    )
    print(f"\nBENCH-E19-SUMMARY {json.dumps(summary, sort_keys=True)}")
    report = _report(bench_reports)
    report.metric("events_logged", stats["emitted"], unit="count", required=1)
    report.metric("events_correlated", correlated, unit="count", required=1)
    for kind, must_correlate in REQUIRED_EVENT_KINDS.items():
        rows = by_kind.get(kind, [])
        report.metric(f"events_{kind.replace('.', '_')}", len(rows), unit="count", required=1)
        assert rows, f"chaos left no {kind!r} event — the injected fault vanished from the log"
        if must_correlate:
            for record in rows:
                assert record["trace_id"] in trace_ids, (
                    f"{kind} event {record['seq']} is not correlated with any request trace"
                )
    assert sum(n for name, n in injected.items() if name.endswith("_refuse")) > 0
    assert answered > 0


@pytest.mark.experiment("E19")
def test_flight_recorder_captures_slow_and_failing_requests_whole(experiment_log, bench_reports):
    database = random_cw_database(predicates=PREDICATES, **INSTANCE)
    service = QueryService()
    service.register("db", database)
    reset_default_log()
    try:
        # Threshold zero: every request is "slow", so each must be captured
        # with its complete forensic record.
        with running_server(service, slow_threshold_ms=0.0) as server:
            with closing(ServiceClient(server.base_url, account=True)) as client:
                for shape in QUERY_POOL:
                    with tracing.trace("bench e19"):
                        client.query("db", shape)
                with pytest.raises(ReproError):
                    client.query("missing-db", QUERY_POOL[0])
                snapshot = client.debug()
    finally:
        service.close()
        reset_default_log()

    entries = snapshot["entries"]
    assert len(entries) == len(QUERY_POOL) + 1, "a slow request escaped the recorder"
    errors = [entry for entry in entries if entry["error"] is not None]
    complete_accounts = 0
    for entry in entries:
        cost = entry["cost"]
        assert cost["schema"] == "repro-cost/v1"
        assert cost["bytes_in"] > 0
        assert cost["elapsed_seconds"] > 0.0
        if entry["error"] is None:
            assert cost["bytes_out"] > 0
            assert entry["trace"] is not None and entry["trace"]["spans"]
            complete_accounts += 1
    (error_entry,) = errors
    assert error_entry["status"] == 404
    assert error_entry["error"]["kind"] == "UnknownDatabaseError"

    # The captured snapshot is directly exportable: the Chrome trace-event
    # document must round-trip through JSON with at least one span per
    # successful request.
    document = json.loads(json.dumps(chrome_trace_events(snapshot)))
    spans = [event for event in document["traceEvents"] if event["ph"] == "X"]
    assert document["displayTimeUnit"] == "ms"
    assert len(spans) >= complete_accounts

    experiment_log.append(
        ("E19", {
            "measurement": "flight recorder",
            "captured": snapshot["captured"],
            "errors_captured": len(errors),
            "export_spans": len(spans),
        })
    )
    report = _report(bench_reports)
    report.metric("captured", snapshot["captured"], unit="count", required=len(QUERY_POOL) + 1)
    report.metric("errors_captured", len(errors), unit="count", required=1)
    report.metric("export_spans", len(spans), unit="count", required=1)


@pytest.mark.experiment("E19")
def test_fully_disabled_forensics_stay_under_five_percent(experiment_log, bench_reports):
    """E14's 5% bound, re-proved with the whole forensic layer present.

    The disabled path is the production default: no active trace (spans are
    one thread-local read), no active account (charges are one ``is None``
    check) and no profiler.  The bound is asserted against the bare
    executor on the same join-heavy workload E14 uses, min-of-N per side.
    """
    storage = ph2(employee_database(N_EMPLOYEES, seed=11))
    workload = join_heavy_workload(
        EMPLOYEE_PREDICATES,
        constants=("dept0", "dept1", "high", "mid"),
        chains=2,
        length=4,
        seed=5,
    )
    ratios = []
    for name, query in workload:
        rewritten = rewrite_query(query, "direct")
        plan = optimize(compile_query(rewritten, storage), storage)

        def bare():
            return execute(plan, storage).rows

        def forensics_disabled():
            with tracing.span(f"bench {name}"):
                return execute(plan, storage, profiler=None).rows

        bare_answers, bare_seconds = best_of(bare, OVERHEAD_REPEATS)
        disabled_answers, disabled_seconds = best_of(forensics_disabled, OVERHEAD_REPEATS)
        assert disabled_answers == bare_answers
        ratios.append(disabled_seconds / bare_seconds if bare_seconds else 1.0)

    overhead = median(ratios)
    experiment_log.append(
        ("E19", {"measurement": "disabled-forensics overhead", "ratio": round(overhead, 3)})
    )
    report = _report(bench_reports)
    report.metric(
        "disabled_overhead_ratio",
        overhead,
        unit="x",
        higher_is_better=False,
        required=DISABLED_OVERHEAD_LIMIT,
    )
    assert overhead <= DISABLED_OVERHEAD_LIMIT, (
        f"fully-disabled forensics cost {overhead:.3f}x the bare executor "
        f"(limit {DISABLED_OVERHEAD_LIMIT}x; per-query: "
        + ", ".join(f"{ratio:.3f}" for ratio in ratios)
        + ")"
    )
