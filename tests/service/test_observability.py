"""Service-layer observability: profiles, /metrics, HTTP tracing, cost bills."""

from __future__ import annotations

import json
import urllib.request
from contextlib import closing

import pytest

from repro.errors import ReproError
from repro.observability import tracing
from repro.observability.export import chrome_trace_events
from repro.service import QueryService, running_server
from repro.service.client import ServiceClient
from repro.service.protocol import QueryRequest, dump_wire
from repro.workloads.scenarios import employee_intro_scenario

QUERY = "(x) . EMP_DEPT(x, 'eng')"


@pytest.fixture()
def service():
    service = QueryService()
    service.register("emp", employee_intro_scenario().database)
    yield service
    service.close()


class TestProfilePayloads:
    def test_profile_is_opt_in(self, service):
        response = service.execute(QueryRequest("emp", QUERY))
        assert response.profile is None

    def test_algebra_profile_carries_an_operator_tree(self, service):
        response = service.execute(QueryRequest("emp", QUERY, profile=True))
        assert response.profile["engine"] == "algebra"
        root = response.profile["operators"]
        assert set(root) >= {"operator", "rows", "time_us", "children"}
        assert root["rows"] == len(response.answers["approximate"])

    def test_exact_profile_is_a_note(self, service):
        response = service.execute(QueryRequest("emp", QUERY, method="exact", profile=True))
        assert response.profile["engine"] == "exact"
        assert "note" in response.profile

    def test_profiled_and_unprofiled_requests_use_distinct_cache_slots(self, service):
        plain = service.execute(QueryRequest("emp", QUERY))
        profiled = service.execute(QueryRequest("emp", QUERY, profile=True))
        assert not profiled.cached  # the plain response must not satisfy it
        assert profiled.answers == plain.answers

    def test_profile_output_is_byte_stable_across_cached_executions(self, service):
        """Satellite: repeated profile=true requests serve identical bytes."""
        request = QueryRequest("emp", QUERY, profile=True)
        with running_server(service) as server, closing(ServiceClient(server.base_url)) as client:
            first = client.query("emp", QUERY, profile=True)
            second = client.query("emp", QUERY, profile=True)
            third = client.query("emp", QUERY, profile=True)
        assert second.cached and third.cached
        assert dump_wire(second) == dump_wire(third)
        # The cached profile is the first execution's, measurements included.
        assert second.profile == first.profile
        assert service.execute(request).profile == first.profile


class TestMetricsEndpoint:
    def test_metrics_snapshot_over_http(self, service):
        with running_server(service) as server, closing(ServiceClient(server.base_url)) as client:
            client.query("emp", QUERY)
            client.query("emp", QUERY)
            metrics = client.metrics()
        assert metrics.counters["query.requests"] == 2
        assert metrics.counters["query.cache_hits"] == 1
        assert metrics.uptime_seconds >= 0.0
        for name in ("query.evaluate", "http./query"):
            histogram = metrics.histograms[name]
            assert histogram["count"] >= 1
            assert 0.0 <= histogram["p50"] <= histogram["p95"] <= histogram["p99"]

    def test_metrics_route_serves_v2_envelopes_to_get_clients(self, service):
        with running_server(service) as server:
            with urllib.request.urlopen(server.base_url + "/metrics") as response:
                body = json.loads(response.read())
        assert body["type"] == "metrics_response"
        assert body["v"] == 2


class TestHttpTracing:
    def test_client_folds_server_spans_into_the_active_trace(self, service):
        with running_server(service) as server, closing(ServiceClient(server.base_url)) as client:
            with tracing.trace("edge request") as active:
                client.query("emp", QUERY)
        names = {span.name for span in active.spans}
        assert "POST /query" in names
        # Every span — local and server-side — carries the edge trace id.
        assert {span.trace_id for span in active.spans} == {active.trace_id}
        server_span = next(span for span in active.spans if span.name == "POST /query")
        assert server_span.parent_id is not None
        assert server_span.duration > 0.0

    def test_untraced_requests_carry_no_trace_field(self, service):
        with running_server(service) as server:
            payload = {"type": "query_request", "v": 2, "database": "emp", "query": QUERY}
            http_request = urllib.request.Request(
                server.base_url + "/query",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(http_request) as response:
                body = json.loads(response.read())
        assert "trace" not in body


class TestCostField:
    def test_cost_is_opt_in_via_the_account_envelope_key(self, service):
        with (
            running_server(service) as server,
            closing(ServiceClient(server.base_url)) as plain_client,
            closing(ServiceClient(server.base_url, account=True)) as billed_client,
        ):
            plain = plain_client.query("emp", QUERY)
            billed = billed_client.query("emp", QUERY)
        assert plain.cost is None
        assert billed.cost["schema"] == "repro-cost/v1"
        assert billed.cost["rows_emitted"] == len(billed.answers["approximate"])
        assert billed.cost["bytes_in"] > 0

    def test_cost_never_enters_the_answer_cache(self, service):
        with (
            running_server(service) as server,
            closing(ServiceClient(server.base_url, account=True)) as client,
        ):
            first = client.query("emp", QUERY)
            second = client.query("emp", QUERY)
        assert second.cached
        # The bill is per-serving: the cached hit re-scanned nothing.
        assert first.cost["rows_scanned"] > 0
        assert second.cost["rows_scanned"] == 0
        assert second.cost["cache_hits"] == 1


class TestFlightRecorderEndpoint:
    def test_fast_healthy_traffic_is_not_captured(self, service):
        with (
            running_server(service, slow_threshold_ms=60_000.0) as server,
            closing(ServiceClient(server.base_url)) as client,
        ):
            client.query("emp", QUERY)
            snapshot = client.debug()
        assert snapshot["schema"] == "repro-flightrecorder/v1"
        assert snapshot["observed"] >= 1
        assert snapshot["entries"] == []

    def test_errors_are_captured_with_the_full_forensic_record(self, service):
        with (
            running_server(service, slow_threshold_ms=60_000.0) as server,
            closing(ServiceClient(server.base_url)) as client,
        ):
            with pytest.raises(Exception):
                client.query("nope", QUERY)
            snapshot = client.debug()
        (entry,) = snapshot["entries"]
        assert entry["status"] == 404
        assert entry["database"] == "nope"
        assert entry["error"]["kind"] == "UnknownDatabaseError"
        assert entry["cost"]["schema"] == "repro-cost/v1"

    def test_slow_requests_are_captured_with_trace_and_cost(self, service):
        with (
            running_server(service, slow_threshold_ms=0.0) as server,
            closing(ServiceClient(server.base_url)) as client,
        ):
            client.query("emp", QUERY)
            snapshot = client.debug()
        entry = snapshot["entries"][0]
        assert entry["path"] == "/query"
        assert entry["cost"]["rows_emitted"] > 0
        # The recorder synthesizes a trace even for untraced clients.
        assert entry["trace"] is None or entry["trace"]["spans"]

    def test_every_slow_or_failing_request_is_captured_whole_and_exportable(self, service):
        texts = [QUERY, "(x) . EMP_DEPT('ada', x)", "(x, y) . EMP_DEPT(x, y)"]
        with running_server(service, slow_threshold_ms=0.0) as server:
            with closing(ServiceClient(server.base_url, account=True)) as client:
                for text in texts:
                    with tracing.trace("recorded"):
                        client.query("emp", text)
                with pytest.raises(ReproError):
                    client.query("nope", QUERY)
                snapshot = client.debug()
        entries = snapshot["entries"]
        assert len(entries) == len(texts) + 1, "a slow request escaped the recorder"
        successes = [entry for entry in entries if entry["error"] is None]
        (failure,) = [entry for entry in entries if entry["error"] is not None]
        for entry in entries:
            assert entry["cost"]["schema"] == "repro-cost/v1"
            assert entry["cost"]["bytes_in"] > 0
            assert entry["cost"]["elapsed_seconds"] > 0.0
        for entry in successes:
            assert entry["cost"]["bytes_out"] > 0
            assert entry["trace"]["spans"]
        assert failure["status"] == 404
        assert failure["error"]["kind"] == "UnknownDatabaseError"
        # The captured snapshot renders to a loadable Chrome trace-event
        # document with at least one span per successful request.
        document = json.loads(json.dumps(chrome_trace_events(snapshot)))
        assert document["displayTimeUnit"] == "ms"
        assert len([event for event in document["traceEvents"] if event["ph"] == "X"]) >= len(successes)
