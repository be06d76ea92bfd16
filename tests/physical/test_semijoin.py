"""Tests for the SemiJoin/AntiJoin plan nodes and their execution paths."""

import pytest

from repro.errors import EvaluationError
from repro.logic.vocabulary import Vocabulary
from repro.physical.algebra import execute, output_columns, plan_to_text
from repro.physical.database import PhysicalDatabase
from repro.physical.plan import (
    AntiJoin,
    LiteralTable,
    ScanRelation,
    SemiJoin,
)


@pytest.fixture
def database():
    vocabulary = Vocabulary(("a",), {"R": 2, "S": 1})
    return PhysicalDatabase(
        vocabulary,
        domain={"a", "b", "c", "d"},
        constants={"a": "a"},
        relations={
            "R": {("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")},
            "S": {("a",), ("c",)},
        },
    )


def _scan_r():
    return ScanRelation("R", ("x", "y"))


def _filter_table(*values):
    return LiteralTable(("k",), frozenset((value,) for value in values))


class TestSemiJoin:
    def test_keeps_only_rows_with_matching_keys(self, database):
        plan = SemiJoin(_scan_r(), _filter_table("a"), (("x", "k"),))
        assert execute(plan, database).rows == frozenset({("a", "b"), ("a", "c")})

    def test_output_columns_are_the_source_columns(self, database):
        plan = SemiJoin(_scan_r(), _filter_table("a"), (("x", "k"),))
        assert output_columns(plan, database) == ("x", "y")

    def test_index_path_and_scan_path_agree(self, database):
        plan = SemiJoin(_scan_r(), _filter_table("a", "c"), (("x", "k"),))
        indexed = execute(plan, database, use_indexes=True).rows
        scanned = execute(plan, database, use_indexes=False).rows
        assert indexed == scanned == frozenset({("a", "b"), ("a", "c"), ("c", "d")})

    def test_empty_filter_produces_nothing(self, database):
        plan = SemiJoin(_scan_r(), _filter_table(), (("x", "k"),))
        assert execute(plan, database).rows == frozenset()

    def test_no_pairs_means_filter_acts_as_exists(self, database):
        everything = execute(SemiJoin(_scan_r(), _filter_table("a"), ()), database).rows
        assert everything == execute(_scan_r(), database).rows
        nothing = execute(SemiJoin(_scan_r(), _filter_table(), ()), database).rows
        assert nothing == frozenset()

    def test_multi_column_keys_match_as_tuples(self, database):
        filter_plan = LiteralTable(("p", "q"), frozenset({("a", "b"), ("c", "d")}))
        plan = SemiJoin(_scan_r(), filter_plan, (("x", "p"), ("y", "q")))
        assert execute(plan, database).rows == frozenset({("a", "b"), ("c", "d")})

    def test_unknown_pair_columns_are_rejected(self, database):
        with pytest.raises(EvaluationError, match="unknown source column"):
            output_columns(SemiJoin(_scan_r(), _filter_table("a"), (("nope", "k"),)), database)
        with pytest.raises(EvaluationError, match="unknown filter column"):
            output_columns(SemiJoin(_scan_r(), _filter_table("a"), (("x", "nope"),)), database)


class TestAntiJoin:
    def test_keeps_only_rows_without_matching_keys(self, database):
        plan = AntiJoin(_scan_r(), _filter_table("a"), (("x", "k"),))
        assert execute(plan, database).rows == frozenset({("b", "c"), ("c", "d")})

    def test_equals_difference_on_full_columns(self, database):
        filter_plan = LiteralTable(("x", "y"), frozenset({("a", "b"), ("z", "z")}))
        plan = AntiJoin(_scan_r(), filter_plan, (("x", "x"), ("y", "y")))
        assert execute(plan, database).rows == frozenset({("a", "c"), ("b", "c"), ("c", "d")})

    def test_empty_filter_keeps_everything(self, database):
        plan = AntiJoin(_scan_r(), _filter_table(), (("x", "k"),))
        assert execute(plan, database).rows == execute(_scan_r(), database).rows


class TestRendering:
    def test_plan_to_text_shows_pairs(self, database):
        text = plan_to_text(SemiJoin(_scan_r(), _filter_table("a"), (("x", "k"),)))
        assert text.startswith("SemiJoin(x=k)")
        assert "Scan R(x, y)" in text
        assert plan_to_text(AntiJoin(_scan_r(), _filter_table("a"), (("x", "k"),))).startswith(
            "AntiJoin(x=k)"
        )
