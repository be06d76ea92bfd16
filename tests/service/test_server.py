"""End-to-end client ↔ server round trips over an ephemeral port."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from contextlib import closing

import pytest

from repro.errors import ParseError, ServiceError
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest
from repro.service.server import running_server


def _refused(request) -> tuple[int, bytes]:
    """Status and body of a request the server answers with an HTTP error."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    with excinfo.value as error:
        return error.code, error.read()


@pytest.fixture(scope="module")
def served():
    """One service + server + client shared by the module's tests."""
    from repro.workloads.traffic import register_scenarios

    service = QueryService()
    register_scenarios(service)
    with running_server(service) as server, closing(ServiceClient(server.base_url)) as client:
        yield service, server, client


class TestRoundTrips:
    def test_health(self, served):
        __, __, client = served
        health = client.health()
        assert health.status == "ok"
        assert health.library_version

    def test_databases(self, served):
        __, __, client = served
        assert client.databases() == ("employee-intro", "jack-the-ripper")

    def test_info(self, served):
        service, __, client = served
        info = client.info("jack-the-ripper")
        assert info.fingerprint == service.entry("jack-the-ripper").fingerprint
        assert info.predicates["MURDERER"]["facts"] == 1

    def test_query_approx(self, served):
        __, __, client = served
        response = client.query("jack-the-ripper", "(x) . MURDERER(x)")
        assert response.answer_set("approximate") == frozenset({("jack_the_ripper",)})

    def test_query_both_is_identical_to_in_process(self, served):
        service, __, client = served
        text = "(x) . LIVED_IN_LONDON(x)"
        remote = client.query("jack-the-ripper", text, method="both")
        local = service.query("jack-the-ripper", text, method="both")
        assert remote.answers == local.answers
        assert remote.complete == local.complete
        assert remote.fingerprint == local.fingerprint

    def test_classify(self, served):
        __, __, client = served
        response = client.classify("(x) . exists y. EMP_DEPT(x, y)")
        assert response.is_first_order
        assert response.is_positive

    def test_batch(self, served):
        __, __, client = served
        request = QueryRequest("employee-intro", "(x) . exists d. EMP_DEPT(x, d)")
        batch = client.batch([request, request, QueryRequest("jack-the-ripper", "(x) . MURDERER(x)")])
        assert batch.total == 3
        assert batch.unique == 2
        assert batch.deduplicated == 1
        assert batch.responses[0] == batch.responses[1]

    def test_stats(self, served):
        __, __, client = served
        stats = client.stats()
        assert "employee-intro" in stats.databases
        assert stats.answer_cache["capacity"] > 0

    @pytest.mark.parametrize(
        "path, message_type",
        [
            ("/health", "health"),
            ("/databases", "databases"),
            ("/info?db=jack-the-ripper", "info_response"),
            ("/stats", "stats_response"),
            ("/metrics", "metrics_response"),
        ],
    )
    def test_every_get_route_answers_a_v2_envelope(self, served, path, message_type):
        __, server, __ = served
        with urllib.request.urlopen(server.base_url + path) as response:
            body = json.loads(response.read())
        assert (body["v"], body["type"]) == (2, message_type)

    def test_second_request_is_served_from_cache(self, served):
        __, __, client = served
        text = "(x) . ~MURDERER(x)"
        client.query("jack-the-ripper", text)
        assert client.query("jack-the-ripper", text).cached


def _post(server, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        server.base_url + path, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )  # fmt: skip
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


class TestRetiredEncodingFlag:
    """``NE`` has one encoding; an older client's ``"virtual_ne"`` key changes nothing."""

    TEXT = "(x, y) . LIVED_IN_LONDON(x) & LIVED_IN_LONDON(y) & ~(x = y) & ~MURDERER(x)"

    @pytest.mark.parametrize("flag", [True, False])
    def test_query_answers_as_without_the_flag(self, served, flag):
        __, server, client = served
        body = {"type": "query_request", "v": 2, "database": "jack-the-ripper", "query": self.TEXT,
                "method": "both", "engine": "algebra", "virtual_ne": flag}  # fmt: skip
        response = _post(server, "/query", body)
        assert "virtual_ne" not in response
        plain = client.query("jack-the-ripper", self.TEXT, method="both", engine="algebra")
        assert response["answers"] == {label: [list(row) for row in rows] for label, rows in plain.answers.items()}

    def test_prepare_answers_as_without_the_flag(self, served):
        __, server, client = served
        template = "(y) . LIVED_IN_LONDON(y) & ~(y = $k)"
        body = {"type": "prepare_request", "v": 2, "database": "jack-the-ripper", "template": template,
                "method": "approx", "engine": "auto", "virtual_ne": True}  # fmt: skip
        prepared = _post(server, "/prepare", body)
        assert "virtual_ne" not in prepared
        execute = {"type": "execute_request", "v": 2, "statement_id": prepared["statement_id"],
                   "params": {"k": "jack_the_ripper"}}  # fmt: skip
        response = _post(server, "/execute", execute)
        handle = client.prepare("jack-the-ripper", template, "approx", "auto")
        assert handle.statement_id == prepared["statement_id"]  # one registry slot
        plain = handle.execute({"k": "jack_the_ripper"})
        assert response["answers"] == {label: [list(row) for row in rows] for label, rows in plain.answers.items()}


class TestErrors:
    def test_unknown_database_raises_service_error(self, served):
        __, __, client = served
        with pytest.raises(ServiceError, match="unknown database"):
            client.query("atlantis", "(x) . P(x)")

    def test_parse_error_surfaces_remotely(self, served):
        # The wire error's stable code re-raises the *typed* exception
        # locally, so remote parse failures look exactly like local ones.
        __, __, client = served
        with pytest.raises(ParseError, match="expected"):
            client.query("jack-the-ripper", "( broken")

    def test_unknown_route_is_404(self, served):
        __, server, __ = served
        code, __ = _refused(server.base_url + "/teleport")
        assert code == 404

    def test_post_to_unknown_route_is_404_even_with_empty_body(self, served):
        __, server, __ = served
        request = urllib.request.Request(server.base_url + "/nope", data=b"", method="POST")
        code, body = _refused(request)
        assert code == 404
        assert "no such route" in json.loads(body)["error"]

    def test_non_string_type_tag_is_400(self, served):
        __, server, __ = served
        body = json.dumps({"type": ["query_request"], "v": 2}).encode()
        request = urllib.request.Request(
            server.base_url + "/query",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        code, __ = _refused(request)
        assert code == 400

    def test_malformed_body_is_400(self, served):
        __, server, __ = served
        request = urllib.request.Request(
            server.base_url + "/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        code, body = _refused(request)
        assert code == 400
        assert json.loads(body)["type"] == "error"

    def test_wrong_message_type_for_route_is_400(self, served):
        __, server, __ = served
        body = json.dumps({"type": "classify_request", "v": 2, "query": "(x) . P(x)"}).encode()
        request = urllib.request.Request(
            server.base_url + "/query",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        code, __ = _refused(request)
        assert code == 400

    def test_v1_envelope_is_a_typed_400_and_caches_nothing(self):
        from repro.workloads.traffic import register_scenarios

        service = QueryService()
        register_scenarios(service)
        body = json.dumps(
            {"type": "query_request", "v": 1, "database": "jack-the-ripper", "query": "(x) . MURDERER(x)"}
        ).encode()
        with running_server(service) as server:
            request = urllib.request.Request(
                server.base_url + "/query",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            code, reply = _refused(request)
            assert code == 400
            error = json.loads(reply)
        assert error["v"] == 2
        assert error["type"] == "error"
        assert error["code"] == "protocol"
        assert "unsupported protocol version 1" in error["error"]
        assert service.stats().answer_cache["size"] == 0
        service.close()

    @pytest.mark.parametrize(
        "route, message_type",
        [
            ("/query", "query_request"),
            ("/classify", "classify_request"),
            ("/batch", "batch_request"),
            ("/prepare", "prepare_request"),
            ("/execute", "execute_request"),
            ("/fetch", "fetch_request"),
        ],
    )
    def test_v1_envelope_is_refused_on_every_post_route(self, served, route, message_type):
        # The version is checked before the message parses, so even a v1
        # body missing every field gets the protocol error, not a field error.
        __, server, __ = served
        request = urllib.request.Request(
            server.base_url + route,
            data=json.dumps({"type": message_type, "v": 1}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        code, body = _refused(request)
        assert code == 400
        error = json.loads(body)
        assert (error["v"], error["type"], error["code"]) == (2, "error", "protocol")
        assert "unsupported protocol version 1" in error["error"]

    def test_unreachable_server_is_a_clean_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach service"):
            client.health()

    def test_unknown_database_is_http_404(self, served):
        __, server, __ = served
        body = json.dumps(
            {"type": "query_request", "v": 2, "database": "atlantis", "query": "(x) . P(x)"}
        ).encode()
        request = urllib.request.Request(
            server.base_url + "/query",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        code, __ = _refused(request)
        assert code == 404

    def test_non_json_2xx_body_is_a_clean_error(self):
        import http.server
        import threading

        class PlainHandler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                body = b"<html>not a repro service</html>"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with http.server.HTTPServer(("127.0.0.1", 0), PlainHandler) as imposter:
            thread = threading.Thread(target=imposter.serve_forever, daemon=True)
            thread.start()
            try:
                url = f"http://127.0.0.1:{imposter.server_address[1]}"
                with closing(ServiceClient(url)) as client:
                    with pytest.raises(ServiceError, match="non-JSON response"):
                        client.health()
            finally:
                imposter.shutdown()
                thread.join(timeout=5)
