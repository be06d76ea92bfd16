"""Tests for CSV persistence of physical and logical databases."""

import pytest

from repro.errors import DatabaseError
from repro.logical.database import CWDatabase
from repro.physical.csvio import (
    load_cw_database,
    load_physical_database,
    save_cw_database,
    save_physical_database,
)


class TestPhysicalRoundTrip:
    def test_round_trip_preserves_contents(self, teaches_physical, tmp_path):
        save_physical_database(teaches_physical, tmp_path / "db")
        loaded = load_physical_database(tmp_path / "db")
        assert loaded.vocabulary.predicates == dict(teaches_physical.vocabulary.predicates)
        assert frozenset(loaded.relation("TEACHES")) == frozenset(teaches_physical.relation("TEACHES"))
        assert loaded.constants == teaches_physical.constants

    def test_missing_schema_raises(self, tmp_path):
        with pytest.raises(DatabaseError):
            load_physical_database(tmp_path)

    def test_empty_relation_files_are_fine(self, teaches_physical, tmp_path):
        empty = teaches_physical.with_relation("TEACHES", set())
        save_physical_database(empty, tmp_path / "db")
        loaded = load_physical_database(tmp_path / "db")
        assert len(loaded.relation("TEACHES")) == 0


class TestLogicalRoundTrip:
    def test_round_trip_preserves_facts_and_uniqueness(self, ripper_cw, tmp_path):
        save_cw_database(ripper_cw, tmp_path / "lb")
        loaded = load_cw_database(tmp_path / "lb")
        assert isinstance(loaded, CWDatabase)
        assert loaded.constants == ripper_cw.constants
        assert loaded.facts == ripper_cw.facts
        assert loaded.unequal == ripper_cw.unequal

    def test_round_trip_preserves_queries_answers(self, ripper_cw, tmp_path):
        from repro.approx import approximate_answers
        from repro.logic.parser import parse_query

        save_cw_database(ripper_cw, tmp_path / "lb")
        loaded = load_cw_database(tmp_path / "lb")
        query = parse_query("(x) . ~MURDERER(x)")
        assert approximate_answers(loaded, query) == approximate_answers(ripper_cw, query)


class TestOneStringPerConstant:
    """``csv.reader`` makes a fresh ``str`` per cell; a loaded database must not keep them."""

    def test_logical_rows_share_the_schema_constants(self, ripper_cw, tmp_path):
        save_cw_database(ripper_cw, tmp_path / "lb")
        loaded = load_cw_database(tmp_path / "lb")
        canonical = {constant: constant for constant in loaded.constants}
        cells = [value for rows in loaded.facts.values() for row in rows for value in row]
        cells += [value for pair in loaded.unequal for value in pair]
        assert len(cells) > len(canonical)  # some constant is named by two rows
        assert all(value is canonical[value] for value in cells)

    def test_physical_rows_share_the_domain_values(self, teaches_physical, tmp_path):
        save_physical_database(teaches_physical, tmp_path / "db")
        loaded = load_physical_database(tmp_path / "db")
        canonical = {value: value for value in loaded.domain}
        cells = [value for row in loaded.relation("TEACHES") for value in row]
        cells += list(loaded.constants.values())
        assert cells and all(value is canonical[value] for value in cells)

    def test_fingerprint_survives_the_round_trip(self, ripper_cw, teaches_physical, tmp_path):
        save_cw_database(ripper_cw, tmp_path / "lb")
        assert load_cw_database(tmp_path / "lb").fingerprint() == ripper_cw.fingerprint()
        save_physical_database(teaches_physical, tmp_path / "db")
        assert load_physical_database(tmp_path / "db").fingerprint() == teaches_physical.fingerprint()

    def test_undeclared_cells_are_still_rejected(self, ripper_cw, tmp_path):
        path = save_cw_database(ripper_cw, tmp_path / "lb")
        with (path / "unequal.csv").open("a", newline="") as handle:
            handle.write("john_watson,nobody\n")
        with pytest.raises(DatabaseError, match="unknown constants"):
            load_cw_database(path)
        path = save_cw_database(ripper_cw, tmp_path / "lb2")
        with (path / "MURDERER.csv").open("a", newline="") as handle:
            handle.write("nobody\n")
        with pytest.raises(DatabaseError, match="unknown constant 'nobody'"):
            load_cw_database(path)
