"""Unit tests for the lazily built per-database hash indexes."""

import threading

import pytest

from repro.logic.vocabulary import Vocabulary
from repro.logical.ph import ph2
from repro.physical.database import PhysicalDatabase
from repro.physical.indexes import DatabaseIndexes, indexes_for
from repro.workloads.generators import random_cw_database


@pytest.fixture
def database():
    vocabulary = Vocabulary((), {"P": 2})
    return PhysicalDatabase(
        vocabulary,
        domain={"a", "b", "c"},
        constants={},
        relations={"P": {("a", "b"), ("a", "c"), ("b", "c")}},
    )


class TestDatabaseIndexes:
    def test_prefix_index_groups_rows_by_key(self, database):
        index = indexes_for(database).prefix("P", (0,))
        assert set(index[("a",)]) == {("a", "b"), ("a", "c")}
        assert set(index[("b",)]) == {("b", "c")}

    def test_multi_column_prefix(self, database):
        index = indexes_for(database).prefix("P", (0, 1))
        assert index[("a", "b")] == (("a", "b"),)

    def test_lookup_missing_key_returns_empty(self, database):
        rows = indexes_for(database).lookup("P", (0,), ("zzz",))
        assert rows == ()

    def test_column_wrapper(self, database):
        assert indexes_for(database).column("P", 1)[("b",)] == (("a", "b"),)

    def test_empty_positions_not_indexed(self, database):
        assert indexes_for(database).prefix("P", ()) is None

    def test_lazy_relations_not_indexed(self):
        logical = random_cw_database(5, {"P": 1}, 2, unknown_fraction=0.5, seed=3)
        storage = ph2(logical)
        assert indexes_for(storage).prefix("NE", (0,)) is None
        assert indexes_for(storage).lookup("NE", (0,), ("c0",)) is None

    def test_built_once_and_cached(self, database):
        indexes = indexes_for(database)
        first = indexes.prefix("P", (0,))
        second = indexes.prefix("P", (0,))
        assert first is second
        assert indexes.built == 1

    def test_instance_cached_on_database(self, database):
        assert indexes_for(database) is indexes_for(database)

    def test_concurrent_builds_agree(self, database):
        indexes = DatabaseIndexes(database)
        results = []

        def probe():
            results.append(indexes.prefix("P", (1,)))

        threads = [threading.Thread(target=probe) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == results[0] for result in results)
        assert indexes.built == 1
