"""Tests for the experiment harness (timing, tables, reports)."""

import pytest

from repro.harness.experiments import Experiment, run_experiment, timed
from repro.harness.reporting import format_ratio, format_report, format_table


class TestTiming:
    def test_timed_returns_result_and_duration(self):
        result, elapsed = timed(lambda: sum(range(1000)))
        assert result == sum(range(1000))
        assert elapsed >= 0


class TestTables:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "value"], [["a", 1], ["longer-name", 123456]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # all lines same width
        assert "longer-name" in text

    def test_float_formatting(self):
        text = format_table(["v"], [[0.000123456], [12345678.0], [1.5]])
        assert "e" in text  # scientific notation for extreme values
        assert "1.5" in text

    def test_bool_formatting(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_format_report_includes_claim_and_notes(self):
        text = format_report("title", "the claim", ["a"], [[1]], notes=["careful"])
        assert "the claim" in text and "careful" in text and "== title ==" in text

    def test_format_ratio(self):
        assert format_ratio(10, 2) == "5.0x"
        assert format_ratio(1, 0) == "n/a"

    def test_format_ratio_rejects_a_negative_denominator(self):
        assert format_ratio(3, -1) == "n/a"

    def test_zero_float_prints_as_zero(self):
        text = format_table(["v"], [[0.0], [-0.0]])
        assert "| 0 |" in text
        assert "e" not in text.replace("| v |", "")

    def test_negative_extremes_use_scientific_notation(self):
        text = format_table(["v"], [[-23456.0], [-0.0001]])
        assert "-2.346e+04" in text and "-1.000e-04" in text

    def test_table_without_rows_is_header_and_rules(self):
        lines = format_table(["alpha", "b"], []).splitlines()
        assert lines == ["+-------+---+", "| alpha | b |", "+-------+---+", "+-------+---+"]

    def test_rows_wider_than_the_header_grow_the_table(self):
        lines = format_table(["a"], [["x", "extra"]]).splitlines()
        assert lines[0] == "+---+-------+"
        assert lines[-2] == "| x | extra |"

    def test_report_without_notes_has_no_note_lines(self):
        text = format_report("t", "c", ["a"], [[1]])
        assert text.splitlines()[:2] == ["== t ==", "paper claim: c"]
        assert "note:" not in text


class TestExperiment:
    def test_add_row_checks_width(self):
        experiment = Experiment("E0", "test", "claim", ("a", "b"))
        experiment.add_row(1, 2)
        with pytest.raises(ValueError):
            experiment.add_row(1)

    def test_report_contains_rows_and_id(self):
        experiment = Experiment("E0", "test", "claim", ("a",))
        experiment.add_row("value")
        experiment.add_note("a note")
        report = experiment.report()
        assert "E0" in report and "value" in report and "a note" in report

    def test_run_experiment_invokes_populate(self, capsys):
        experiment = Experiment("E0", "test", "claim", ("a",))

        def populate(exp):
            exp.add_row(42)

        run_experiment(experiment, populate, echo=True)
        captured = capsys.readouterr()
        assert "42" in captured.out
        assert experiment.rows

    def test_run_experiment_without_echo_prints_nothing(self, capsys):
        experiment = Experiment("E0", "test", "claim", ("a",))
        returned = run_experiment(experiment, lambda exp: exp.add_row(7), echo=False)
        assert returned is experiment
        assert [m.values for m in experiment.rows] == [(7,)]
        assert capsys.readouterr().out == ""

    def test_report_is_the_formatted_table_of_the_rows(self):
        experiment = Experiment("E9", "title", "claim", ("n", "ok"))
        experiment.add_row(3, True)
        assert experiment.report() == format_report(
            "E9: title", "claim", ("n", "ok"), [(3, True)], []
        )
