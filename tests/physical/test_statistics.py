"""Unit tests for per-database cardinality statistics."""

import pytest

from repro.logic.vocabulary import Vocabulary
from repro.logical.ph import ph2
from repro.logical.unknowns import VirtualNERelation
from repro.physical.database import PhysicalDatabase
from repro.physical.statistics import Statistics, statistics_for
from repro.workloads.generators import random_cw_database


@pytest.fixture
def database():
    vocabulary = Vocabulary(("a",), {"P": 2, "Q": 1})
    return PhysicalDatabase(
        vocabulary,
        domain={"a", "b", "c"},
        constants={"a": "a"},
        relations={"P": {("a", "b"), ("a", "c"), ("b", "c")}, "Q": {("a",)}},
    )


def _refuse(*args):
    raise AssertionError("NE was enumerated")


class TestStatistics:
    def test_row_counts(self, database):
        statistics = Statistics(database)
        assert statistics.row_count("P") == 3
        assert statistics.row_count("Q") == 1

    def test_distinct_counts_per_column(self, database):
        statistics = Statistics(database)
        assert statistics.distinct("P", 0) == 2  # a, b
        assert statistics.distinct("P", 1) == 2  # b, c
        assert statistics.distinct("Q", 0) == 1

    def test_position_out_of_range(self, database):
        with pytest.raises(IndexError):
            Statistics(database).distinct("P", 2)

    def test_domain_sizes(self, database):
        statistics = Statistics(database)
        assert statistics.domain_size == 3
        assert statistics.active_domain_size == len(database.active_domain())

    def test_instance_cached(self, database):
        assert statistics_for(database) is statistics_for(database)

    def test_lazy_relation_estimated_not_enumerated(self, monkeypatch):
        logical = random_cw_database(6, {"P": 1}, 3, unknown_fraction=0.5, seed=1)
        storage = ph2(logical)
        assert isinstance(storage.relation("NE"), VirtualNERelation)
        monkeypatch.setattr(VirtualNERelation, "__iter__", _refuse)
        summary = statistics_for(storage).relation("NE")
        assert summary.estimated
        assert summary.rows == len(storage.relation("NE"))
        assert all(value <= summary.rows for value in summary.distinct)

    def test_as_dict_reports_computed_relations(self, database):
        statistics = Statistics(database)
        statistics.relation("P")
        report = statistics.as_dict()
        assert report["relations"]["P"]["rows"] == 3
        assert "Q" not in report["relations"]  # not yet requested
