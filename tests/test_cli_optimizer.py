"""Tests for the CLI's engine choice and its one serving configuration."""

import pytest

from repro.cli import build_parser, main
from repro.physical.csvio import save_cw_database


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


class TestEngineChoices:
    def test_auto_is_the_default_engine(self):
        arguments = build_parser().parse_args(["query", "somedir", "(x) . P(x)"])
        assert arguments.engine == "auto"

    def test_auto_engine_answers_match_the_explicit_engines(self, stored_database, capsys):
        outputs = {}
        for engine in ("auto", "tarski", "algebra"):
            assert main(["query", str(stored_database), "(x) . LONDONER(x)", "--engine", engine]) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["auto"] == outputs["tarski"] == outputs["algebra"]
