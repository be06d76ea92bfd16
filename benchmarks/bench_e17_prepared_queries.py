"""E17 — prepared parameterized queries: amortize expression complexity.

Vardi's central distinction is *expression complexity* (the query) versus
*data complexity* (the instance).  The ad-hoc serving path re-pays the
expression side — parse, rewrite, compile, optimize, engine dispatch — on
every request, even when traffic is one join-heavy template swept over
thousands of parameter bindings.  Protocol v2's session API pays it once:
``prepare`` plans the template (parameters typing as constants), and each
``execute`` substitutes the binding into the finished plan.

Two claims, each an assertion:

* **throughput** — on the :func:`~repro.workloads.traffic.parameter_sweep_workload`
  (one join-heavy template, many distinct bindings, the CLI-default
  ``engine="auto"``), prepared ``execute_many`` must beat the per-request
  ad-hoc path by at least ``REQUIRED_MEDIAN_SPEEDUP`` in the median over
  ``TRIALS`` trials — with **byte-identical** answers on every binding, and
  agreement with exact certain answers (Tarskian ground truth) on a sample;
* **streaming** — a large answer set streamed through a protocol v2 cursor
  (pages over HTTP) reassembles byte-identically to the single-body
  response for the same query.

Set ``REPRO_E17_SMOKE=1`` for the reduced CI configuration (smaller
instance, fewer bindings, and only a "never slower" bar with headroom).
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.harness.experiments import measure_latencies, median
from repro.logic.parser import parse_query
from repro.logic.printer import query_to_text
from repro.logic.template import bind_query
from repro.logical.exact import certain_answers
from repro.service import QueryService, running_server
from repro.service.client import ServiceClient
from repro.service.protocol import answers_to_wire
from repro.workloads.generators import employee_database
from repro.workloads.traffic import parameter_sweep_workload

SMOKE = os.environ.get("REPRO_E17_SMOKE", "").strip() not in ("", "0")

N_EMPLOYEES = 40 if SMOKE else 120
N_BINDINGS = 20 if SMOKE else 100
TRIALS = 2 if SMOKE else 5
ENGINE = "auto"  # the CLI default: dispatch is part of the amortized work
REQUIRED_MEDIAN_SPEEDUP = 1.5 if SMOKE else 5.0
GROUND_TRUTH_SAMPLE = 3
DATABASE_SEED = 11
SWEEP_SEED = 7


def _database():
    return employee_database(N_EMPLOYEES, seed=DATABASE_SEED)


def _report(bench_reports):
    return bench_reports(
        "E17", "prepared parameterized queries vs ad-hoc path", mode="smoke" if SMOKE else "full"
    )


def _fresh_services(database):
    """One cold ad-hoc service and one cold prepared-side service.

    Fresh per trial: a sweep's bindings are *distinct* (that is what makes
    it a sweep), so the ad-hoc plan cache must not be pre-warmed by an
    earlier trial's identical texts.
    """
    adhoc = QueryService(answer_cache_capacity=0)
    prepared = QueryService(answer_cache_capacity=0)
    adhoc.register("emp", database)
    prepared.register("emp", database)
    return adhoc, prepared


@pytest.mark.experiment("E17")
def test_prepared_sweep_beats_adhoc_with_identical_answers(benchmark, experiment_log, bench_reports):
    database = _database()
    template, __ = parameter_sweep_workload(database, 1, seed=SWEEP_SEED)
    template_query = parse_query(template)
    employees = sorted({row[0] for row in database.facts_for("EMP_DEPT")})
    rng = random.Random(SWEEP_SEED)

    ratios = []
    rows = []
    last = None
    for trial in range(TRIALS):
        sample = rng.sample(employees, min(N_BINDINGS + 1, len(employees)))
        warm_binding = {"e": sample[0]}
        bindings = [{"e": employee} for employee in sample[1:]]
        texts = [query_to_text(bind_query(template_query, binding)) for binding in bindings]
        adhoc, prepared = _fresh_services(database)

        # Symmetric warm-up: both sides derive storage and pay their one-off
        # setup (template optimization on the prepared side) outside the
        # timed region — the sweep measures the steady state a long-running
        # server actually serves.
        adhoc.query("emp", query_to_text(bind_query(template_query, warm_binding)), engine=ENGINE)
        statement = prepared.prepare("emp", template, engine=ENGINE)
        prepared.execute_prepared(statement.statement_id, warm_binding)

        started = time.perf_counter()
        adhoc_responses = [adhoc.query("emp", text, engine=ENGINE) for text in texts]
        adhoc_seconds = time.perf_counter() - started

        started = time.perf_counter()
        batch = prepared.execute_prepared_many(statement.statement_id, bindings, max_workers=1)
        prepared_seconds = time.perf_counter() - started

        for text, adhoc_response, prepared_response in zip(texts, adhoc_responses, batch.responses):
            assert prepared_response.answers == adhoc_response.answers, (
                f"prepared answers diverge from ad-hoc on {text!r}"
            )
            assert prepared_response.query == text

        ratio = adhoc_seconds / prepared_seconds if prepared_seconds else float("inf")
        ratios.append(ratio)
        rows.append(
            {
                "trial": trial,
                "bindings": len(bindings),
                "adhoc_ms": round(adhoc_seconds * 1000, 1),
                "prepared_ms": round(prepared_seconds * 1000, 1),
                "speedup": round(ratio, 2),
            }
        )
        last = (prepared, statement, bindings)

    # Tarskian / exact ground truth on a *small* instance (exact evaluation
    # is exponential by design — that is the paper's point): the prepared
    # fast path is still the sound approximation, and on this positive
    # query it is complete (Theorem 13), so it must equal certain answers.
    small = employee_database(12, seed=DATABASE_SEED)
    small_service = QueryService(answer_cache_capacity=0)
    small_service.register("emp", small)
    try:
        small_statement = small_service.prepare("emp", template, engine=ENGINE)
        small_employees = sorted({row[0] for row in small.facts_for("EMP_DEPT")})
        for employee in small_employees[:GROUND_TRUTH_SAMPLE]:
            binding = {"e": employee}
            bound = bind_query(template_query, binding)
            response = small_service.execute_prepared(small_statement.statement_id, binding)
            exact = certain_answers(small, bound)
            assert answers_to_wire(exact) == [
                list(row) for row in response.answers["approximate"]
            ], f"prepared answers disagree with exact certain answers under {binding}"
    finally:
        small_service.close()
    prepared, statement, bindings = last

    benchmark(lambda: prepared.execute_prepared(statement.statement_id, bindings[0]))

    median_speedup = median(ratios)
    summary = {
        "experiment": "E17",
        "employees": N_EMPLOYEES,
        "bindings": N_BINDINGS,
        "trials": TRIALS,
        "engine": ENGINE,
        "median_speedup": round(median_speedup, 2),
        "min_speedup": round(min(ratios), 2),
        "max_speedup": round(max(ratios), 2),
        "required": REQUIRED_MEDIAN_SPEEDUP,
        "smoke_mode": SMOKE,
    }
    benchmark.extra_info.update(summary)
    for row in rows:
        experiment_log.append(("E17", row))
    experiment_log.append(("E17", {"trial": "== median ==", "speedup": round(median_speedup, 2)}))
    print(f"\nBENCH-E17-SUMMARY {json.dumps(summary, sort_keys=True)}")
    report = _report(bench_reports)
    report.metric("median_speedup", median_speedup, unit="x", required=REQUIRED_MEDIAN_SPEEDUP)
    report.metric("min_speedup", min(ratios), unit="x")
    report.metric("max_speedup", max(ratios), unit="x")
    report.latency(
        "prepared_execute",
        measure_latencies(lambda: prepared.execute_prepared(statement.statement_id, bindings[0]), 50),
    )
    report.note(f"{N_BINDINGS} bindings x {TRIALS} trials over a {N_EMPLOYEES}-employee instance")

    assert median_speedup >= REQUIRED_MEDIAN_SPEEDUP, (
        f"prepared execute_many is only {median_speedup:.2f}x the ad-hoc path "
        f"(required {REQUIRED_MEDIAN_SPEEDUP}x; per-trial: "
        + ", ".join(str(row["speedup"]) for row in rows)
        + ")"
    )


@pytest.mark.experiment("E17")
def test_streamed_answer_roundtrips_identically(experiment_log):
    """Cursor + pages reassemble to exactly the single-body answer."""
    database = _database()
    service = QueryService()
    service.register("emp", database)
    # Every coworker pair: a deliberately large answer set (O(n^2 / depts)).
    template = "(x, y) . exists d. EMP_DEPT(x, d) & EMP_DEPT(y, d)"
    try:
        with running_server(service) as server:
            client = ServiceClient(server.base_url)
            handle = client.prepare("emp", template)
            single = handle.execute({})
            streamed = list(handle.stream({}, page_size=64))
            assert tuple(streamed) == single.answers["approximate"], (
                "streamed pages do not reassemble to the single-body answer"
            )
            # Same rows as the ad-hoc route for the same query text.
            adhoc = client.query("emp", handle.template)
            assert adhoc.answers["approximate"] == single.answers["approximate"]
            experiment_log.append(
                ("E17", {"trial": "== streaming ==", "bindings": len(streamed), "speedup": "identical"})
            )
    finally:
        service.close()

