"""Per-query resource accounting: request-context plumbing and charge sites."""

from __future__ import annotations

import threading

import pytest

from repro.observability.accounting import (
    COST_SCHEMA,
    ResourceAccount,
    cost_summary,
    current_account,
)
from repro.observability.context import scope
from repro.observability.metrics import MetricsRegistry
from repro.service import QueryService
from repro.service.protocol import QueryRequest
from repro.workloads.scenarios import employee_intro_scenario

QUERY = "(x) . EMP_DEPT(x, 'eng')"


@pytest.fixture()
def service():
    service = QueryService()
    service.register("emp", employee_intro_scenario().database)
    yield service
    service.close()


class TestRequestContext:
    def test_no_account_by_default(self):
        assert current_account() is None

    def test_scope_and_restore(self):
        account = ResourceAccount()
        with scope(account=account):
            assert current_account() is account
            nested = ResourceAccount()
            with scope(account=nested):
                assert current_account() is nested
            assert current_account() is account
        assert current_account() is None

    def test_accounts_do_not_leak_across_threads(self):
        seen = []
        with scope(account=ResourceAccount()):
            thread = threading.Thread(target=lambda: seen.append(current_account()))
            thread.start()
            thread.join()
        assert seen == [None]


class TestPayload:
    def test_payload_shape(self):
        account = ResourceAccount()
        account.add_scanned(10)
        account.add_emitted(3)
        account.add_operator_seconds(0.25)
        account.note_cache_hit()
        account.add_queue_wait(0.01)
        account.note_retry(2)
        account.add_bytes_in(100)
        account.add_bytes_out(200)
        payload = account.to_payload()
        assert payload["schema"] == COST_SCHEMA
        assert payload["rows_scanned"] == 10
        assert payload["rows_emitted"] == 3
        assert payload["operator_seconds"] == 0.25
        assert payload["cache_hits"] == 1
        assert payload["queue_wait_seconds"] == 0.01
        assert payload["retries"] == 2
        assert payload["bytes_in"] == 100
        assert payload["bytes_out"] == 200
        assert payload["elapsed_seconds"] >= 0.0

    def test_charge_metrics_folds_into_counters(self):
        registry = MetricsRegistry()
        account = ResourceAccount()
        account.add_scanned(5)
        account.add_bytes_out(64)
        account.charge_metrics(registry)
        counters = registry.snapshot()["counters"]
        assert counters["account.rows_scanned"] == 5
        assert counters["account.bytes_out"] == 64

    def test_cost_summary_renders_one_line(self):
        account = ResourceAccount()
        account.add_scanned(7)
        account.add_queue_wait(0.002)
        line = cost_summary(account.to_payload())
        assert "scanned=7" in line
        assert "queued=2.00ms" in line
        assert cost_summary("junk") == ""


class TestEngineCharges:
    def test_execution_charges_scans_and_emissions(self, service):
        account = ResourceAccount()
        with scope(account=account):
            response = service.execute(QueryRequest("emp", QUERY))
        assert account.rows_emitted == len(response.answers["approximate"])
        assert account.rows_scanned >= account.rows_emitted
        assert account.operator_seconds > 0.0
        assert account.cache_hits == 0

    def test_cached_execution_charges_a_cache_hit(self, service):
        with scope(account=ResourceAccount()):
            service.execute(QueryRequest("emp", QUERY))
        account = ResourceAccount()
        with scope(account=account):
            response = service.execute(QueryRequest("emp", QUERY))
        assert response.cached
        assert account.cache_hits == 1
        # A cached answer re-scans nothing.
        assert account.rows_scanned == 0

    def test_no_account_means_no_charges_and_identical_answers(self, service):
        bare = service.execute(QueryRequest("emp", QUERY, method="approx"))
        account = ResourceAccount()
        with scope(account=account):
            billed = service.execute(QueryRequest("emp", QUERY, method="approx"))
        assert billed.answers == bare.answers
