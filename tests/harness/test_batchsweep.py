"""The batch-size sweep behind the executor's ``DEFAULT_BATCH_SIZE``."""

from __future__ import annotations

import pytest

from repro.harness.batchsweep import (
    CANDIDATE_BATCH_SIZES,
    recommend_batch_size,
    sweep_batch_sizes,
    sweep_database,
    sweep_plans,
    sweep_summary,
)
from repro.physical.batch import DEFAULT_BATCH_SIZE, execute_batched


class TestSweep:
    def test_one_row_per_candidate_with_per_shape_seconds(self):
        rows = sweep_batch_sizes(
            sweep_database(rows=256, fanout=8), batch_sizes=(16, 64), repeats=1
        )
        assert [row["batch_rows"] for row in rows] == [16, 64]
        shape_names = [name for name, _ in sweep_plans()]
        for row in rows:
            assert sorted(row["seconds"]) == sorted(shape_names)
            assert all(seconds > 0 for seconds in row["seconds"].values())
            assert row["total_seconds"] == pytest.approx(sum(row["seconds"].values()))

    def test_sweep_shapes_exercise_scan_filter_and_join(self):
        database = sweep_database(rows=128, fanout=4)
        results = {name: execute_batched(plan, database) for name, plan in sweep_plans()}
        assert set(results) == {"scan", "filter", "join"}
        assert len(results["scan"].rows) == 128
        # The filter keeps exactly one b-group of the scan.
        assert 0 < len(results["filter"].rows) < 128
        # The foreign-key join preserves every R row (every b has an S match).
        assert len(results["join"].rows) == 128

    def test_default_batch_size_is_a_sweep_candidate(self):
        assert DEFAULT_BATCH_SIZE in CANDIDATE_BATCH_SIZES


class TestRecommendation:
    @staticmethod
    def _rows(totals: dict[int, float]):
        return [
            {"batch_rows": size, "seconds": {}, "total_seconds": total}
            for size, total in totals.items()
        ]

    def test_picks_the_fastest_when_differences_are_real(self):
        rows = self._rows({64: 3.0, 1024: 1.0, 4096: 2.0})
        assert recommend_batch_size(rows, tolerance=0.05) == 1024

    def test_ties_break_toward_the_smaller_batch(self):
        # 1024 is within 5% of the fastest (4096): the smaller size wins
        # because it bounds peak per-batch memory for free.
        rows = self._rows({64: 3.0, 1024: 1.04, 4096: 1.0})
        assert recommend_batch_size(rows, tolerance=0.05) == 1024
        assert recommend_batch_size(rows, tolerance=0.0) == 4096

    def test_empty_sweep_is_an_error(self):
        with pytest.raises(ValueError):
            recommend_batch_size([])


class TestSummary:
    def test_summary_is_json_ready_and_names_the_default(self):
        summary = sweep_summary(repeats=1)
        assert summary["default_batch_rows"] == DEFAULT_BATCH_SIZE
        assert summary["recommended_batch_rows"] in CANDIDATE_BATCH_SIZES
        assert [entry["batch_rows"] for entry in summary["candidates"]] == list(
            CANDIDATE_BATCH_SIZES
        )
        for entry in summary["candidates"]:
            assert isinstance(entry["total_us"], int) and entry["total_us"] > 0
