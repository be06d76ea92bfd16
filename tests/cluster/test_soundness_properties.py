"""Property tests: sharded answers == single-process answers == ground truth.

The cluster's contract is that scatter-gather merging never changes an
answer.  These tests hammer that on randomized instances, three ways:

1. **byte identity** — for every request, the routed/merged answer of an
   in-process cluster equals the single-process
   :class:`~repro.service.engine.QueryService` answer exactly (the
   acceptance criterion of the cluster subsystem);
2. **Tarskian ground truth** — for the ``exact`` route, both equal the
   certain answers computed directly by Theorem 1 machinery
   (:func:`repro.logical.exact.certain_answers`);
3. **soundness across the boundary** — the merged approximation stays a
   subset of the merged exact answers (Theorem 11 survives sharding).

The query pool deliberately includes non-decomposable shapes (joins across
split relations, negation over split relations) so the full-copy fallback is
exercised alongside the scatter/conjunction merges.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.deploy import local_router
from repro.cluster.partition import (
    BooleanConjunction,
    FullCopy,
    PartitionScheme,
    ScatterUnion,
    partition_database,
    decompose_query,
)
from repro.logic.parser import parse_query
from repro.logical.exact import certain_answers
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, answers_from_wire
from repro.workloads.generators import random_cw_database

PREDICATES = {"P": 1, "R": 2, "S": 2}

# Shapes over the random schema; {c} placeholders take random constants.
QUERY_SHAPES = [
    "(x, y) . R(x, y)",
    "(x, y) . S(x, y)",
    "(x) . P(x)",
    "(x) . R({c}, x)",
    "(x) . R(x, x)",
    "(x) . S(x, {c})",
    "() . P({c}) & R({c}, {d})",
    "() . R({c}, {d}) & S({c}, {d}) & P({c})",
    "(x) . exists y. R(x, y) & P(y)",          # non-decomposable join
    "(x) . ~P(x)",                              # negation over a split relation
    "(x) . exists y. R(x, y) & ~S(y, x)",       # join + negation
    "() . exists x. R(x, x)",
]


def _instance(seed: int):
    return random_cw_database(
        n_constants=5,
        predicates=PREDICATES,
        n_facts=14,
        unknown_fraction=0.4,
        seed=seed,
    )


def _requests(database, seed: int) -> list[QueryRequest]:
    rng = random.Random(seed)
    constants = database.constants
    requests = []
    for shape in QUERY_SHAPES:
        text = shape.replace("{c}", f"'{rng.choice(constants)}'").replace(
            "{d}", f"'{rng.choice(constants)}'"
        )
        requests.append(QueryRequest("db", text, "both"))
    return requests


@pytest.mark.parametrize("seed", range(8))
def test_sharded_answers_equal_single_process_and_ground_truth(seed):
    database = _instance(seed)
    # Threshold 0 splits every nonempty relation: the adversarial layout.
    router = local_router(
        {"db": database}, shards=3, replicas=1, replication_threshold=0
    )
    single = QueryService()
    single.register("db", database)

    for request in _requests(database, seed * 1000 + 17):
        clustered = router.execute(request)
        direct = single.execute(request)
        # (1) byte identity with single-process evaluation, both routes.
        assert clustered.answers == direct.answers, request
        assert clustered.arity == direct.arity
        assert (clustered.complete, clustered.missed) == (direct.complete, direct.missed)
        # (2) the exact route equals the Tarskian ground truth.
        truth = certain_answers(database, parse_query(request.query))
        assert answers_from_wire(clustered.answers["exact"]) == truth, request
        # (3) soundness of the merged approximation.
        approx = answers_from_wire(clustered.answers["approximate"])
        assert approx <= truth, request


@pytest.mark.parametrize("seed", range(8, 12))
def test_replication_threshold_never_changes_answers(seed):
    """The same stream answers identically under every partitioning choice."""
    database = _instance(seed)
    requests = [
        QueryRequest(request.database, request.query, "approx")
        for request in _requests(database, seed)
    ]
    reference = None
    for threshold in (0, 3, 10_000):
        router = local_router(
            {"db": database}, shards=2, replicas=1, replication_threshold=threshold
        )
        answers = [router.execute(request).answers for request in requests]
        if reference is None:
            reference = answers
        else:
            assert answers == reference, f"threshold {threshold} changed answers"


@pytest.mark.parametrize("seed", range(12, 16))
def test_fallback_queries_really_take_the_full_copy(seed):
    """The pool must keep exercising every plan kind, or the tests go blind."""
    database = _instance(seed)
    layout = partition_database("db", database, PartitionScheme(3, replication_threshold=0))
    kinds = set()
    for request in _requests(database, seed):
        kinds.add(type(decompose_query(layout, parse_query(request.query))))
    assert ScatterUnion in kinds
    assert BooleanConjunction in kinds
    assert FullCopy in kinds
