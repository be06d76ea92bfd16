"""Tests for the CLI's one serving configuration."""

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.cli import build_parser, main
from repro.logic.parser import parse_query
from repro.physical.csvio import save_cw_database
from repro.service.protocol import parse_wire


@pytest.fixture
def stored_database(ripper_cw, tmp_path):
    directory = tmp_path / "ripper"
    save_cw_database(ripper_cw, directory)
    return directory


class TestOneConfiguration:
    @pytest.mark.parametrize("command", ["query", "serve"])
    def test_help_lists_no_switch_off_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--no-" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--no-optimizer", "--no-sip", "--no-vector"])
    def test_removed_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "somedir", flag])


class TestNoEngineFlag:
    """Every command takes the capability rule; none names an engine."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "somedir", "(x) . P(x)"],
            ["client", "http://127.0.0.1:1", "query", "db", "(x) . P(x)"],
            ["client", "http://127.0.0.1:1", "explain", "db", "(x) . P(x)"],
            ["client", "http://127.0.0.1:1", "prepared", "db", "(x) . P($k, x)"],
        ],
    )
    def test_engine_is_not_an_option(self, argv, capsys):
        assert not hasattr(build_parser().parse_args(argv), "engine")
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--engine", "tarski"])

    def test_query_answers_as_the_tarskian_evaluator(self, ripper_cw, stored_database, capsys):
        assert main(["query", str(stored_database), "(x) . ~LONDONER(x)", "--json"]) == 0
        response = parse_wire(capsys.readouterr().out)
        expected = ApproximateEvaluator(engine="tarski").answers(ripper_cw, parse_query("(x) . ~LONDONER(x)"))
        assert response.answer_set("approximate") == expected
