"""Resilience over real HTTP: deadlines → 504, admission → 503, fault injection."""

from __future__ import annotations

import json
import time
from contextlib import closing
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ServiceUnavailableError,
)
from repro.resilience import FAULTS_ENV, FaultPlan, deadline_scope
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, dump_wire
from repro.service.server import running_server

QUERY = "(x) . MURDERER(x)"
DATABASE = "jack-the-ripper"


@pytest.fixture()
def service():
    from repro.workloads.traffic import register_scenarios

    service = QueryService()
    register_scenarios(service)
    yield service
    service.close()


def _post_raw(base_url: str, path: str, payload: dict):
    """POST a hand-built envelope; returns (status, parsed body, headers)."""
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        base_url + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _envelope(extra: dict | None = None) -> dict:
    wire = json.loads(dump_wire(QueryRequest(DATABASE, QUERY)))
    wire.update(extra or {})
    return wire


class TestDeadlines:
    def test_an_expired_budget_is_a_typed_504(self, service):
        with running_server(service) as server:
            # A microscopic (but positive, hence adopted) budget has expired
            # by the time the server's first checkpoint runs.
            status, body, __ = _post_raw(server.base_url, "/query", _envelope({"deadline_ms": 0.0001}))
            assert status == 504
            assert body["code"] == "deadline_exceeded"
            assert "deadline exceeded" in body["error"]

    def test_the_client_refuses_to_forward_a_dead_request(self, service):
        with running_server(service) as server:
            with closing(ServiceClient(server.base_url)) as client:
                with deadline_scope(1):
                    time.sleep(0.01)  # the budget dies before the send
                    with pytest.raises(DeadlineExceededError, match="request send"):
                        client.query(DATABASE, QUERY)

    def test_a_generous_deadline_changes_nothing(self, service):
        with running_server(service) as server:
            with closing(ServiceClient(server.base_url)) as client:
                plain = client.query(DATABASE, QUERY)
                with deadline_scope(60_000):
                    under_deadline = client.query(DATABASE, QUERY)
                assert under_deadline.answers == plain.answers
                assert under_deadline.degraded is False

    def test_an_envelope_without_deadline_is_untouched(self, service):
        with running_server(service) as server:
            status, body, __ = _post_raw(server.base_url, "/query", _envelope())
            assert status == 200
            assert body["database"] == DATABASE


class TestAdmission:
    def test_sheds_map_to_503_with_retry_after(self, service):
        with running_server(service, max_in_flight=1, max_queue_depth=0) as server:
            with closing(ServiceClient(server.base_url)) as client:
                expected = client.query(DATABASE, QUERY).answers
            server.admission.acquire()  # pin the only slot
            try:
                status, body, headers = _post_raw(server.base_url, "/query", _envelope())
                assert status == 503
                assert body["code"] == "overloaded"
                assert int(headers["Retry-After"]) >= 1
                # GETs bypass admission, so monitoring works *during* overload.
                with closing(ServiceClient(server.base_url)) as client:
                    assert client.health().status == "ok"
                    assert client.metrics().counters["admission.sheds"] >= 1
                    with pytest.raises(OverloadedError):
                        client.query(DATABASE, QUERY)
            finally:
                server.admission.release()
            # Once the load passes, the same request answers exactly as before.
            with closing(ServiceClient(server.base_url)) as client:
                assert client.query(DATABASE, QUERY).answers == expected

    def test_admitted_requests_count_in_metrics(self, service):
        with running_server(service) as server:
            with closing(ServiceClient(server.base_url)) as client:
                client.query(DATABASE, QUERY)
                assert client.metrics().counters["admission.admitted"] >= 1

    def test_retired_env_switch_changes_nothing(self, service, monkeypatch):
        # REPRO_NO_RESILIENCE was retired: admission and deadlines always run.
        monkeypatch.setenv("REPRO_NO_RESILIENCE", "1")
        with running_server(service, max_in_flight=1, max_queue_depth=0) as server:
            assert server.admission is not None
            status, body, __ = _post_raw(server.base_url, "/query", _envelope({"deadline_ms": 0.0001}))
            assert status == 504
            assert body["code"] == "deadline_exceeded"


class TestClientFaults:
    def test_refused_connect_is_provably_unsent(self, service):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        with closing(ServiceClient(f"http://127.0.0.1:{port}", timeout=1.0)) as client:
            with pytest.raises(ServiceUnavailableError) as info:
                client.health()
            assert info.value.sent_request is False

    def test_injected_faults_fire_in_schedule_order(self, service):
        with running_server(service) as server:
            plan = FaultPlan(schedule={0: "refuse", 1: "garble"})
            with closing(ServiceClient(server.base_url, fault_plan=plan)) as client:
                with pytest.raises(ServiceUnavailableError) as info:
                    client.query(DATABASE, QUERY)  # operation 0
                assert info.value.sent_request is False
                with pytest.raises(ProtocolError, match="truncated"):
                    client.query(DATABASE, QUERY)  # operation 1
                # Operation 2 is clean; the client must have recovered.
                assert client.query(DATABASE, QUERY).database == DATABASE
                assert plan.injected() == {"refuse": 1, "garble": 1}

    def test_faults_env_spec_arms_every_client(self, service, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "refuse@0")
        with running_server(service) as server:
            with closing(ServiceClient(server.base_url)) as client:
                with pytest.raises(ServiceUnavailableError):
                    client.query(DATABASE, QUERY)
                assert client.query(DATABASE, QUERY).database == DATABASE
