"""Tests for deduplicated concurrent batch evaluation."""

from __future__ import annotations

import pytest

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
