"""Tests for deduplicated concurrent batch evaluation."""

from __future__ import annotations

import sys
import time

import pytest

from repro.observability import tracing
from repro.observability.accounting import ResourceAccount, activate as activate_account
from repro.resilience.deadlines import Deadline, activate as activate_deadline
from repro.service.batch import BatchEvaluator, evaluate_batch
from repro.service.engine import QueryService
from repro.service.protocol import ErrorResponse, QueryRequest, QueryResponse


@pytest.fixture
def service(ripper_cw, teaches_cw):
    service = QueryService()
    service.register("ripper", ripper_cw)
    service.register("teaches", teaches_cw)
    return service


class TestDeduplication:
    def test_duplicates_evaluated_once(self, service):
        request = QueryRequest("ripper", "(x) . LONDONER(x)")
        batch = evaluate_batch(service, [request] * 10)
        assert batch.total == 10
        assert batch.unique == 1
        assert batch.deduplicated == 9
        stats = service.stats()
        assert stats.batch["executed"] == 1
        assert stats.batch["deduplicated"] == 9
        # Every positional slot carries the same answers.
        answer_sets = {response.answers["approximate"] for response in batch.responses}
        assert len(answer_sets) == 1

    def test_near_duplicates_are_distinct(self, service):
        batch = evaluate_batch(
            service,
            [
                QueryRequest("ripper", "(x) . LONDONER(x)"),
                QueryRequest("ripper", "(x) . LONDONER(x)", profile=True),
                QueryRequest("ripper", "(x) . LONDONER(x)", method="exact"),
            ],
        )
        assert batch.unique == 3
        assert batch.deduplicated == 0

    def test_empty_batch(self, service):
        batch = evaluate_batch(service, [])
        assert batch.total == batch.unique == batch.deduplicated == 0
        assert batch.responses == ()


class TestOrderingAndErrors:
    def test_responses_are_positional(self, service):
        requests = [
            QueryRequest("ripper", "(x) . MURDERER(x)"),
            QueryRequest("teaches", "(x) . exists y. TEACHES(x, y)"),
            QueryRequest("ripper", "(x) . MURDERER(x)"),
        ]
        batch = evaluate_batch(service, requests)
        assert [response.database for response in batch.responses] == ["ripper", "teaches", "ripper"]
        assert batch.responses[0] == batch.responses[2]

    def test_one_bad_request_does_not_poison_the_batch(self, service):
        requests = [
            QueryRequest("ripper", "(x) . MURDERER(x)"),
            QueryRequest("ripper", "syntax error ("),
            QueryRequest("nowhere", "(x) . MURDERER(x)"),
            QueryRequest("ripper", "(x) . LONDONER(x)"),
        ]
        batch = evaluate_batch(service, requests)
        assert isinstance(batch.responses[0], QueryResponse)
        assert isinstance(batch.responses[1], ErrorResponse)
        assert batch.responses[1].kind == "ParseError"
        assert isinstance(batch.responses[2], ErrorResponse)
        assert batch.responses[2].kind == "UnknownDatabaseError"
        assert isinstance(batch.responses[3], QueryResponse)

    def test_service_batch_reuses_one_shared_pool(self, service):
        request = QueryRequest("ripper", "(x) . MURDERER(x)")
        service.batch([request, request])
        pool = service._executor
        assert pool is not None
        service.batch([request])
        assert service._executor is pool
        service.close()
        assert service._executor is None

    def test_single_worker_path_matches_pool_path(self, service):
        requests = [
            QueryRequest("ripper", "(x) . MURDERER(x)"),
            QueryRequest("teaches", "(x) . exists y. TEACHES(x, y)"),
        ]
        serial = BatchEvaluator(service, max_workers=1).run(requests)
        pooled = BatchEvaluator(service, max_workers=4).run(requests)
        assert [r.answers for r in serial.responses] == [r.answers for r in pooled.responses]


class TestRequestContext:
    """Pooled items run under the batch request's deadline, account and trace."""

    REQUESTS = [
        QueryRequest("ripper", "(x) . MURDERER(x)"),
        QueryRequest("ripper", "(x) . LONDONER(x)"),
        QueryRequest("teaches", "(x) . exists y. TEACHES(x, y)"),
    ]

    @staticmethod
    def fresh(ripper_cw, teaches_cw) -> QueryService:
        service = QueryService()
        service.register("ripper", ripper_cw, precompute=False)
        service.register("teaches", teaches_cw, precompute=False)
        return service

    def test_an_expired_deadline_fails_every_slot(self, service):
        with activate_deadline(Deadline(time.monotonic() - 1.0)):
            batch = service.batch(self.REQUESTS)
        assert [response.code for response in batch.responses] == ["deadline_exceeded"] * len(self.REQUESTS)

    def test_the_batch_bills_the_sum_of_its_items(self, ripper_cw, teaches_cw):
        # Sixteen distinct items on sixteen pool threads (more than cores),
        # switching threads as often as the interpreter allows: every item
        # charges the one shared account, and none of its charges is lost.
        requests = [QueryRequest("ripper", "(x) . LONDONER(x)"), QueryRequest("ripper", "(x) . MURDERER(x)")]
        requests += [QueryRequest("teaches", "(x, y) . TEACHES(x, y)"), QueryRequest("teaches", "(x) . PHILOSOPHER(x)")]
        for constant in ripper_cw.constants:
            requests.append(QueryRequest("ripper", f"(x) . LONDONER(x) & ~(x = '{constant}')"))
            requests.append(QueryRequest("ripper", f"(x) . MURDERER(x) | x = '{constant}'"))
        for constant in teaches_cw.constants:
            requests.append(QueryRequest("teaches", f"(y) . TEACHES('{constant}', y)"))
            requests.append(QueryRequest("teaches", f"(x) . TEACHES(x, '{constant}') | PHILOSOPHER(x)"))
        scanned = emitted = 0
        alone = self.fresh(ripper_cw, teaches_cw)
        for request in requests:
            account = ResourceAccount()
            with activate_account(account):
                alone.execute(request)
            scanned += account.rows_scanned
            emitted += account.rows_emitted
        assert scanned > 0 and emitted > 0
        account = ResourceAccount()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with activate_account(account):
                batch = BatchEvaluator(self.fresh(ripper_cw, teaches_cw), max_workers=len(requests)).run(requests)
        finally:
            sys.setswitchinterval(interval)
        assert batch.unique == len(requests) == 16
        assert all(isinstance(response, QueryResponse) for response in batch.responses)
        assert (account.rows_scanned, account.rows_emitted) == (scanned, emitted)

    def test_item_spans_nest_under_the_callers_span(self, service):
        with tracing.trace("client batch") as active:
            service.batch(self.REQUESTS)
        spans = active.spans
        root = next(span for span in spans if span.name == "client batch")
        evaluations = [span for span in spans if span.name == "evaluate approx"]
        assert len(evaluations) == len(self.REQUESTS)
        by_id = {span.span_id: span for span in spans}
        for span in evaluations:
            while span.parent_id != root.span_id:
                span = by_id[span.parent_id]
