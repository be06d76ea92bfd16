"""End-to-end client ↔ server round trips over an ephemeral port."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from contextlib import closing

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.errors import ParseError, ServiceError
from repro.logic.parser import parse_query
from repro.service.client import ServiceClient
from repro.service.engine import _AST_ROUTE, QueryService
from repro.service.protocol import QueryRequest, to_wire
from repro.service.server import running_server
from repro.workloads.scenarios import jack_the_ripper_database
from repro.workloads.traffic import load_traffic_log

DATABASE = "jack-the-ripper"


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


def _query(text: str, **extra) -> dict:
    return {"type": "query_request", "v": 2, "database": DATABASE, "query": text, "method": "approx", **extra}


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
        plain = client.query("jack-the-ripper", self.TEXT, method="both")
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
        handle = client.prepare("jack-the-ripper", template, "approx")
        assert handle.statement_id == prepared["statement_id"]  # one registry slot
        plain = handle.execute({"k": "jack_the_ripper"})
        assert response["answers"] == {label: [list(row) for row in rows] for label, rows in plain.answers.items()}


class TestRetiredEngineKey:
    """A served request names no engine: every one takes the capability rule.

    First-order rewrites run on the algebra engine and second-order rewrites
    on the Tarskian evaluator.  An older sender's ``"engine"`` key is dropped
    on parse, so it changes neither the answer nor the entries it lands on.
    """

    QUERY = "(x, y) . LIVED_IN_LONDON(x) & LIVED_IN_LONDON(y) & ~(x = y)"
    TEMPLATE = "(y) . LIVED_IN_LONDON(y) & ~(y = $k)"
    SECOND_ORDER = "(x) . LIVED_IN_LONDON(x) & exists2 Q/1. Q(x) & MURDERER(x)"
    #: Fields of a response that differ between a miss and a hit, or per serving.
    VOLATILE = ("cached", "cost", "trace")

    @pytest.fixture
    def fresh(self):
        """Its own service, so cache counts start at zero."""
        service = QueryService()
        service.register(DATABASE, jack_the_ripper_database())
        with running_server(service) as server, closing(ServiceClient(server.base_url)) as client:
            yield service, server, client
        service.close()

    def test_one_query_four_ways_lands_on_one_entry(self, fresh):
        service, server, __ = fresh
        payloads = [
            _post(server, "/query", _query(self.QUERY, **extra))
            for extra in ({"engine": "algebra"}, {"engine": "auto"}, {"engine": "tarski"}, {})
        ]
        stats = service.stats()
        assert (stats.answer_cache["size"], stats.answer_cache["hits"]) == (1, 3)
        assert stats.plan_cache["size"] == 1
        assert len(payloads[0]["answers"]["approximate"]) == 6
        assert [payload["cached"] for payload in payloads] == [False, True, True, True]
        stable = [{k: v for k, v in p.items() if k not in self.VOLATILE} for p in payloads]
        assert all(payload == stable[0] for payload in stable)
        assert "engine" not in payloads[0]

    @pytest.mark.parametrize("engine", ["tarski", "algebra", "bogus"])
    def test_a_query_request_with_an_engine_lands_on_the_plain_entry(self, fresh, engine):
        service, server, client = fresh
        old = _post(server, "/query", _query(self.QUERY, engine=engine))
        plain = client.query(DATABASE, self.QUERY)
        assert plain.cached
        assert old["answers"] == {label: [list(row) for row in rows] for label, rows in plain.answers.items()}
        assert service.stats().answer_cache["size"] == 1

    @pytest.mark.parametrize("engine", ["tarski", "algebra", "bogus"])
    def test_a_prepare_request_with_an_engine_lands_on_the_plain_statement(self, fresh, engine):
        service, server, client = fresh
        body = {"type": "prepare_request", "v": 2, "database": DATABASE, "template": self.TEMPLATE,
                "method": "approx", "engine": engine}  # fmt: skip
        prepared = _post(server, "/prepare", body)
        assert "engine" not in prepared
        handle = client.prepare(DATABASE, self.TEMPLATE)
        assert handle.statement_id == prepared["statement_id"]
        execute = {"type": "execute_request", "v": 2, "statement_id": prepared["statement_id"],
                   "params": {"k": "jack_the_ripper"}}  # fmt: skip
        old = _post(server, "/execute", execute)
        plain = client.query(DATABASE, old["query"])
        assert plain.cached
        assert old["answers"] == {label: [list(row) for row in rows] for label, rows in plain.answers.items()}
        assert service.stats().answer_cache["size"] == 1

    def test_a_traffic_log_with_engine_values_warms_the_plain_entries(self, tmp_path):
        texts = (self.QUERY, "(x) . MURDERER(x)")
        log = tmp_path / "traffic.jsonl"
        with log.open("w") as handle:
            for text in texts:
                for engine in ("algebra", "tarski", "auto"):
                    line = {**to_wire(QueryRequest(DATABASE, text)), "engine": engine}
                    handle.write(json.dumps(line, sort_keys=True) + "\n")
        service = QueryService()
        service.register(DATABASE, jack_the_ripper_database())
        try:
            report = service.warm(load_traffic_log(log))
            assert (report.total, report.warmed, report.already_cached, report.failed) == (6, 2, 4, 0)
            for text in texts:
                assert service.execute(QueryRequest(DATABASE, text)).cached
            assert service.stats().answer_cache["size"] == len(texts)
        finally:
            service.close()

    def test_a_second_order_query_takes_the_tarskian_route_over_http(self, fresh):
        """``engine="algebra"`` raised on this query; the key is now ignored."""
        service, server, __ = fresh
        payload = _post(server, "/query", _query(self.SECOND_ORDER, engine="algebra"))
        tarski = ApproximateEvaluator(engine="tarski")
        expected = tarski.answers(jack_the_ripper_database(), parse_query(self.SECOND_ORDER))
        assert payload["answers"] == {"approximate": sorted([list(row) for row in expected])}
        assert expected == frozenset({("jack_the_ripper",)})
        assert [service._plans.get(key) for key in list(service._plans.keys())] == [_AST_ROUTE]


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
