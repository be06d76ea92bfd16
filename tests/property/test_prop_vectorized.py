"""Property tests: vectorized execution is indistinguishable from tuple-at-a-time.

Over random small databases and random queries, the column-batch executor
must agree with

* the tuple-at-a-time executor on the same optimized plan (SIP on *and*
  off, indexes on and off),
* the naive unoptimized plan, and
* direct Tarskian evaluation of the rewritten query (ground truth),

at every batch size in {1, 7, 1024} — batch boundaries land everywhere
relative to operator cardinalities, so off-by-one emission bugs cannot
hide.  The deterministic tests at the bottom check that the service
layer's prepared and ad-hoc routes answer alike, and that the service's own
plan answers the same on both executors at every batch size.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings

from repro.approx.evaluator import ApproximateEvaluator
from repro.approx.rewrite import rewrite_query
from repro.logic.parser import parse_query
from repro.logical.database import CWDatabase
from repro.physical.algebra import execute
from repro.physical.batch import execute_batched
from repro.physical.compiler import compile_query
from repro.physical.evaluator import evaluate_query
from repro.physical.optimizer import optimize
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, answers_to_wire
from tests.property.strategies import cw_databases, queries

MAX_EXAMPLES = 25
BATCH_SIZES = (1, 7, 1024)

_TARSKI = ApproximateEvaluator(engine="tarski")
_ALGEBRA = ApproximateEvaluator(engine="algebra")


class TestExecutorEquivalence:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(database=cw_databases(max_constants=3), query=queries())
    def test_vectorized_tuple_naive_and_tarskian_agree(self, database, query):
        storage = _ALGEBRA.storage(database)
        rewritten = _ALGEBRA.rewrite(query)
        naive_plan = _ALGEBRA.plan_on_storage(storage, query)
        assume(naive_plan is not None)
        naive_plan = compile_query(rewritten, storage)
        truth = evaluate_query(storage, rewritten)
        naive = execute(naive_plan, storage, use_indexes=False, vectorize=False)
        assert naive.rows == truth
        for sip in (True, False):
            plan = optimize(naive_plan, storage, sip=sip)
            tuple_result = execute(plan, storage, vectorize=False)
            assert tuple_result.rows == truth
            for batch_rows in BATCH_SIZES:
                batched = execute_batched(plan, storage, batch_rows=batch_rows)
                assert batched == tuple_result
                assert (
                    execute_batched(
                        naive_plan, storage, use_indexes=False, batch_rows=batch_rows
                    ).rows
                    == truth
                )

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(database=cw_databases(max_constants=3), query=queries())
    def test_engines_agree_with_vectorization_default(self, database, query):
        """The algebra engine (vectorized by default) and the Tarskian
        enumeration engine answer identically."""
        assert _ALGEBRA.answers(database, query) == _TARSKI.answers(database, query)


_SERVICE_DATABASE = CWDatabase(
    ("a", "b", "c", "d"),
    {"P": 1, "R": 2},
    {"P": {("a",), ("c",)}, "R": {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")}},
    [("a", "b"), ("c", "d")],
)


class TestServiceRoutes:
    """Prepared and ad-hoc service answers are identical, and the ad-hoc
    plan answers the same on the tuple executor and at every batch size."""

    TEMPLATE = "(x) . exists y . (R($start, y) & R(y, x))"
    ADHOC = "(x) . exists y . (R('a', y) & R(y, x))"
    PARAMS = {"start": "a"}

    @pytest.mark.parametrize("batch_rows", [None, 1, 7, 1024])
    def test_prepared_matches_adhoc_at_every_batch_size(self, batch_rows):
        service = QueryService()
        service.register("db", _SERVICE_DATABASE, precompute=False)
        statement = service.prepare("db", self.TEMPLATE)
        prepared = service.execute_prepared(statement.statement_id, self.PARAMS)
        adhoc = service.execute(QueryRequest("db", self.ADHOC))
        prepared_wire = answers_to_wire(prepared.answer_set("approximate"))
        assert prepared_wire == answers_to_wire(adhoc.answer_set("approximate"))
        storage = _ALGEBRA.storage(_SERVICE_DATABASE)
        plan = _ALGEBRA.plan_on_storage(storage, parse_query(self.ADHOC))
        if batch_rows is None:  # no batches: the tuple-at-a-time reference
            rows = execute(plan, storage, vectorize=False).rows
        else:
            rows = execute_batched(plan, storage, batch_rows=batch_rows).rows
        assert answers_to_wire(rows) == prepared_wire
