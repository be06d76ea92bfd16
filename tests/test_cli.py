"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.physical.csvio import save_cw_database
from repro.service.engine import QueryService
from repro.service.protocol import (
    ClassifyResponse,
    InfoResponse,
    QueryResponse,
    parse_wire,
)
from repro.service.server import running_server


@pytest.fixture
def stored_database(ripper_cw, tmp_path):
    directory = tmp_path / "ripper"
    save_cw_database(ripper_cw, directory)
    return directory


class TestCommands:
    def test_help_lists_no_benchmark_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro")
        assert "bench" not in out

    def test_subcommands_are_the_query_serving_and_operations_commands(self):
        (commands,) = [
            action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
        ]
        assert sorted(commands.choices) == sorted(
            ["info", "query", "classify", "serve", "top", "trace", "cluster", "client", "chaos"]
        )

    def test_an_unknown_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["no-such-command"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestInfo:
    def test_info_prints_summary(self, stored_database, capsys):
        assert main(["info", str(stored_database)]) == 0
        out = capsys.readouterr().out
        assert "MURDERER" in out
        assert "unknown constants" in out

    def test_missing_database_is_a_clean_error(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_approximate_query(self, stored_database, capsys):
        assert main(["query", str(stored_database), "(x) . LONDONER(x)"]) == 0
        out = capsys.readouterr().out
        assert "approximate answers (3)" in out
        assert "jack" in out

    def test_exact_query(self, stored_database, capsys):
        assert main(["query", str(stored_database), "(x) . ~MURDERER(x)", "--method", "exact"]) == 0
        out = capsys.readouterr().out
        assert "exact answers (0)" in out

    def test_both_reports_completeness(self, stored_database, capsys):
        code = main(["query", str(stored_database), "(x) . MURDERER(x)", "--method", "both"])
        assert code == 0
        out = capsys.readouterr().out
        assert "approximation was complete" in out

    def test_boolean_query_prints_truth(self, stored_database, capsys):
        assert main(["query", str(stored_database), "exists x. MURDERER(x)"]) == 0
        out = capsys.readouterr().out
        assert "<true>" in out

    def test_bad_query_text_is_a_clean_error(self, stored_database, capsys):
        assert main(["query", str(stored_database), "P(x"]) == 2
        assert "error:" in capsys.readouterr().err


class TestClassify:
    def test_classify_first_order(self, capsys):
        assert main(["classify", "(x) . exists y. R(x, y) & ~P(y)"]) == 0
        out = capsys.readouterr().out
        assert "co-NP" in out

    def test_classify_positive(self, capsys):
        assert main(["classify", "(x) . P(x)"]) == 0
        assert "positive" in capsys.readouterr().out


class TestJsonOutput:
    """--json prints protocol messages — the same serializer the server uses."""

    def test_info_json_is_a_protocol_message(self, stored_database, capsys):
        assert main(["info", str(stored_database), "--json"]) == 0
        message = parse_wire(capsys.readouterr().out)
        assert isinstance(message, InfoResponse)
        assert message.name == "ripper"
        assert message.predicates["MURDERER"]["facts"] == 1

    def test_query_json_matches_in_process_service(self, stored_database, ripper_cw, capsys):
        assert main(["query", str(stored_database), "(x) . MURDERER(x)", "--method", "both", "--json"]) == 0
        message = parse_wire(capsys.readouterr().out)
        assert isinstance(message, QueryResponse)
        assert message.complete is True

        service = QueryService()
        service.register("ripper", ripper_cw)
        local = service.query("ripper", "(x) . MURDERER(x)", method="both")
        assert message.answers == local.answers
        assert message.fingerprint == local.fingerprint

    def test_classify_json(self, capsys):
        assert main(["classify", "(x) . P(x)", "--json"]) == 0
        message = parse_wire(capsys.readouterr().out)
        assert isinstance(message, ClassifyResponse)
        assert message.is_positive

    def test_json_output_is_valid_json_document(self, stored_database, capsys):
        assert main(["query", str(stored_database), "(x) . LONDONER(x)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "query_response"


@pytest.fixture
def live_server(ripper_cw):
    service = QueryService()
    service.register("ripper", ripper_cw)
    with running_server(service) as server:
        yield server


class TestClientCommand:
    def test_client_health(self, live_server, capsys):
        assert main(["client", live_server.base_url, "health"]) == 0
        assert "status: ok" in capsys.readouterr().out

    def test_client_databases(self, live_server, capsys):
        assert main(["client", live_server.base_url, "databases"]) == 0
        assert "ripper" in capsys.readouterr().out

    def test_client_info(self, live_server, capsys):
        assert main(["client", live_server.base_url, "info", "ripper"]) == 0
        out = capsys.readouterr().out
        assert "MURDERER" in out

    def test_client_query_text_output(self, live_server, capsys):
        assert main(["client", live_server.base_url, "query", "ripper", "(x) . MURDERER(x)"]) == 0
        out = capsys.readouterr().out
        assert "approximate answers (1)" in out
        assert "jack" in out

    def test_client_query_json_output(self, live_server, capsys):
        code = main(["client", live_server.base_url, "query", "ripper", "(x) . MURDERER(x)", "--json"])
        assert code == 0
        message = parse_wire(capsys.readouterr().out)
        assert isinstance(message, QueryResponse)

    def test_client_classify(self, live_server, capsys):
        assert main(["client", live_server.base_url, "classify", "(x) . P(x)"]) == 0
        assert "positive" in capsys.readouterr().out

    def test_client_stats(self, live_server, capsys):
        assert main(["client", live_server.base_url, "stats"]) == 0
        assert "answer cache" in capsys.readouterr().out

    def test_client_unknown_database_is_clean_error(self, live_server, capsys):
        assert main(["client", live_server.base_url, "query", "nope", "(x) . P(x)"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_client_unreachable_server_is_clean_error(self, capsys):
        assert main(["client", "http://127.0.0.1:9", "health"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_client_health_and_databases_json_are_valid_json(self, live_server, capsys):
        assert main(["client", live_server.base_url, "health", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
        assert main(["client", live_server.base_url, "databases", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["databases"] == ["ripper"]
        assert payload["type"] == "databases"


class TestServeNaming:
    def test_duplicate_basenames_are_a_clean_error(self, stored_database, capsys):
        code = main(["serve", str(stored_database), str(stored_database), "--port", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "NAME=DIR" in err

    def test_name_equals_dir_syntax_disambiguates(self, stored_database, ripper_cw, monkeypatch, capsys):
        served = {}

        def fake_serve(service, host, port):
            served["names"] = service.database_names()

        monkeypatch.setattr("repro.cli.serve_forever", fake_serve)
        code = main(["serve", str(stored_database), f"ripper2={stored_database}", "--port", "0"])
        assert code == 0
        assert served["names"] == ("ripper", "ripper2")


class TestClientForensics:
    def test_client_query_cost(self, live_server, capsys):
        code = main(["client", live_server.base_url, "query", "ripper", "(x) . MURDERER(x)", "--cost"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost: " in out
        assert "emitted=1" in out

    def test_client_debug_text_and_json(self, live_server, capsys):
        assert main(["client", live_server.base_url, "debug"]) == 0
        assert "flight recorder" in capsys.readouterr().out
        assert main(["client", live_server.base_url, "debug", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["schema"] == "repro-flightrecorder/v1"


class TestTraceExport:
    def test_export_renders_chrome_trace_json(self, live_server, tmp_path, capsys):
        from repro.observability import tracing
        from repro.service.client import ServiceClient

        with tracing.trace("cli test") as trace:
            client = ServiceClient(live_server.base_url)
            client.query("ripper", "(x) . MURDERER(x)")
            client.close()
        source = tmp_path / "trace.json"
        source.write_text(json.dumps({"trace": trace.to_wire()}))
        assert main(["trace", "export", str(source)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["displayTimeUnit"] == "ms"
        assert any(event["ph"] == "X" for event in document["traceEvents"])

    def test_export_to_file_reports_span_count(self, live_server, tmp_path, capsys):
        from repro.observability import tracing
        from repro.service.client import ServiceClient

        with tracing.trace("cli test") as trace:
            client = ServiceClient(live_server.base_url)
            client.query("ripper", "(x) . MURDERER(x)")
            client.close()
        source = tmp_path / "trace.json"
        source.write_text(json.dumps(trace.to_wire()))
        out_path = tmp_path / "chrome.json"
        assert main(["trace", "export", str(source), "-o", str(out_path)]) == 0
        assert "span event(s)" in capsys.readouterr().out
        assert json.loads(out_path.read_text())["traceEvents"]

    def test_export_without_a_trace_is_a_clean_error(self, tmp_path, capsys):
        source = tmp_path / "no_trace.json"
        source.write_text(json.dumps({"answers": {}}))
        assert main(["trace", "export", str(source)]) == 2
        assert "no trace found" in capsys.readouterr().err

    def test_export_unreadable_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["trace", "export", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestTopCommand:
    def test_single_refresh_plain(self, live_server, capsys):
        code = main(["top", live_server.base_url, "--iterations", "1", "--plain", "--interval", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "1/1 server(s) up" in out
        assert live_server.base_url in out

    def test_down_servers_are_reported_not_fatal(self, capsys):
        code = main(["top", "http://127.0.0.1:9", "--iterations", "1", "--plain", "--interval", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DOWN" in out
        assert "0/1 server(s) up" in out

    def test_nonpositive_interval_is_a_clean_error(self, capsys):
        assert main(["top", "http://127.0.0.1:9", "--interval", "0"]) == 2
        assert "error:" in capsys.readouterr().err
