"""Tests for the measurement helpers used by the comparison benchmarks."""

from types import SimpleNamespace

import pytest

from repro.harness import experiments
from repro.harness.experiments import best_of, median


class TestMedian:
    def test_odd_length(self):
        assert median([5.0, 1.0, 3.0]) == 3.0

    def test_even_length_averages_middle_pair(self):
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_single_value(self):
        assert median([7.5]) == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])


class TestBestOf:
    def test_returns_result_and_positive_time(self):
        result, seconds = best_of(lambda: 42, repeats=3)
        assert result == 42
        assert seconds >= 0.0

    def test_runs_exactly_n_times(self):
        calls = []
        best_of(lambda: calls.append(1), repeats=4)
        assert len(calls) == 4

    def test_returns_the_first_result(self):
        results = iter(["first", "second", "third"])
        result, __ = best_of(lambda: next(results), repeats=3)
        assert result == "first"

    def test_reports_the_fastest_run(self, monkeypatch):
        # perf_counter is read twice per run: runs of 5, 2 and 9 ticks.
        ticks = iter([0, 5, 10, 12, 20, 29])
        monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        __, seconds = best_of(lambda: None, repeats=3)
        assert seconds == 2

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            best_of(lambda: None, repeats=0)
