"""Chaos property: faults may cost availability, never correctness.

The chaos variant of the sharded-equivalence property: an in-process
cluster whose backends misbehave under a random seeded
:class:`~repro.resilience.faults.FaultPlan` — refusals, mid-request drops,
garbled replies, latency spikes — must, for every request it *does*
answer, return exactly the single-process answer and (on the exact route)
the Tarskian ground truth of Theorem 1.  Requests are allowed to fail with
the typed availability errors; they are never allowed to come back wrong,
truncated or reordered-by-merge.

Retries, failover and the stale-answer degraded mode are all enabled, so
this also pins the retry policy's core claim: replaying a request whose
first attempt *may* have executed (``sent_request=True`` drops) cannot
change the answer, because worker reads are idempotent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.deploy import local_router
from repro.errors import ClusterError, ProtocolError, ServiceUnavailableError
from repro.logic.parser import parse_query
from repro.logical.exact import certain_answers
from repro.resilience.faults import FAULT_KINDS, FaultPlan, FaultingBackend
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, answers_from_wire
from repro.workloads.generators import random_cw_database

PREDICATES = {"P": 1, "R": 2, "S": 2}

QUERY_SHAPES = [
    "(x, y) . R(x, y)",
    "(x) . P(x)",
    "(x) . exists y. R(x, y) & P(y)",  # non-decomposable: full-copy fallback
    "(x) . ~P(x)",  # negation over a split relation
    "() . exists x. R(x, x)",
]

AVAILABILITY_ERRORS = (ClusterError, ServiceUnavailableError, ProtocolError)


@st.composite
def fault_plans(draw) -> FaultPlan:
    """Random background noise plus (sometimes) an outage window."""
    rates = {
        kind: draw(st.sampled_from([0.0, 0.05, 0.15, 0.3]))
        for kind in FAULT_KINDS
        if kind not in ("delay", "trickle")  # stalls only slow the test down
    }
    windows = []
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=20))
        length = draw(st.integers(min_value=1, max_value=15))
        windows.append((start, start + length, draw(st.sampled_from(("refuse", "drop")))))
    return FaultPlan(seed=draw(st.integers(min_value=0, max_value=2**16)), rates=rates, windows=windows)


@settings(max_examples=20, deadline=None)
@given(instance_seed=st.integers(min_value=0, max_value=7), plan=fault_plans())
def test_chaos_answers_are_byte_identical_or_absent(instance_seed, plan):
    database = random_cw_database(
        n_constants=5,
        predicates=PREDICATES,
        n_facts=14,
        unknown_fraction=0.4,
        seed=instance_seed,
    )
    router = local_router(
        {"db": database},
        shards=3,
        replicas=2,
        replication_threshold=0,
        degraded="stale_cache",
        backend_wrapper=lambda backend, __: FaultingBackend(backend, plan),
    )
    single = QueryService()
    single.register("db", database)
    try:
        answered = 0
        for shape in QUERY_SHAPES:
            request = QueryRequest("db", shape, "both", "algebra")
            try:
                clustered = router.execute(request)
            except AVAILABILITY_ERRORS:
                continue  # availability lost, honestly reported — acceptable
            answered += 1
            direct = single.execute(request)
            # Byte identity with the single-process answer, both routes.
            assert clustered.answers == direct.answers, (shape, plan.describe())
            assert clustered.arity == direct.arity
            # The exact route equals the Tarskian ground truth.
            truth = certain_answers(database, parse_query(shape))
            assert answers_from_wire(clustered.answers["exact"]) == truth, shape
            # A degraded answer must still be flagged as such — and these
            # first-contact requests can never be served from a stale cache.
            assert clustered.degraded is False
    finally:
        router.close()
        single.close()


@settings(max_examples=10, deadline=None)
@given(plan=fault_plans())
def test_chaos_never_breaks_the_fault_free_rerun(plan):
    """After the fault budget is spent, the same router must heal fully."""
    database = random_cw_database(
        n_constants=4, predicates=PREDICATES, n_facts=10, unknown_fraction=0.3, seed=99
    )
    healed = FaultPlan(
        seed=plan.seed, rates=plan.rates, windows=plan.windows, limit=plan.operations
    )
    router = local_router(
        {"db": database},
        shards=2,
        replicas=2,
        replication_threshold=0,
        backend_wrapper=lambda backend, __: FaultingBackend(backend, healed),
    )
    single = QueryService()
    single.register("db", database)
    try:
        # Burn the (zero-length) fault budget, then demand full availability:
        # every backend answers cleanly, so every request must succeed.
        for shape in QUERY_SHAPES:
            request = QueryRequest("db", shape, "approx", "algebra")
            assert router.execute(request).answers == single.execute(request).answers
    finally:
        router.close()
        single.close()
