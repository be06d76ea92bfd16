"""Unit tests for the CWDatabase value class."""

import pytest

from repro.errors import DatabaseError, VocabularyError
from repro.logical.database import CWDatabase


class TestConstruction:
    def test_needs_at_least_one_constant(self):
        with pytest.raises(DatabaseError):
            CWDatabase((), {"P": 1})

    def test_facts_checked_against_arity(self):
        with pytest.raises(DatabaseError):
            CWDatabase(("a",), {"P": 1}, {"P": [("a", "a")]})

    def test_facts_checked_against_constants(self):
        with pytest.raises(DatabaseError):
            CWDatabase(("a",), {"P": 1}, {"P": [("zzz",)]})

    def test_facts_for_undeclared_predicate_rejected(self):
        with pytest.raises(VocabularyError):
            CWDatabase(("a",), {"P": 1}, {"Q": [("a",)]})

    def test_uniqueness_checked_against_constants(self):
        with pytest.raises(DatabaseError):
            CWDatabase(("a", "b"), {"P": 1}, unequal=[("a", "zzz")])

    def test_ne_predicate_name_reserved(self):
        with pytest.raises(VocabularyError):
            CWDatabase(("a",), {"NE": 2})

    def test_missing_fact_sets_default_to_empty(self):
        db = CWDatabase(("a",), {"P": 1, "Q": 2})
        assert db.facts_for("Q") == frozenset()

    def test_facts_deduplicate(self):
        db = CWDatabase(("a",), {"P": 1}, {"P": [("a",), ("a",)]})
        assert len(db.facts_for("P")) == 1


class TestStructure:
    def test_fully_specified_detection(self, teaches_cw, ripper_cw):
        assert teaches_cw.is_fully_specified
        assert not ripper_cw.is_fully_specified

    def test_are_known_distinct(self, ripper_cw):
        assert ripper_cw.are_known_distinct("disraeli", "dickens")
        assert not ripper_cw.are_known_distinct("disraeli", "jack")
        assert not ripper_cw.are_known_distinct("jack", "jack")

    def test_unknown_constants(self, ripper_cw):
        # jack has no uniqueness axioms; he alone covers every missing pair.
        assert ripper_cw.unknown_constants() == frozenset({"jack"})

    def test_unknown_constants_empty_when_fully_specified(self, teaches_cw):
        assert teaches_cw.unknown_constants() == frozenset()

    def test_missing_uniqueness_pairs(self, ripper_cw):
        missing = ripper_cw.missing_uniqueness_pairs()
        assert ("dickens", "jack") in missing
        assert ("disraeli", "jack") in missing
        assert len(missing) == 2

    def test_size_counts_facts_axioms_constants(self, ripper_cw):
        assert ripper_cw.size() == 4 + 1 + 3

    def test_atomic_facts_and_uniqueness_axioms_listing(self, ripper_cw):
        facts = ripper_cw.atomic_facts()
        assert len(facts) == 4
        axioms = ripper_cw.uniqueness_axioms()
        assert len(axioms) == 1
        assert axioms[0].pair == frozenset({"disraeli", "dickens"})

    def test_describe_mentions_unknowns(self, ripper_cw, teaches_cw):
        assert "unknown" in ripper_cw.describe()
        assert "fully specified" in teaches_cw.describe()


class TestTheory:
    def test_theory_contains_all_five_components(self, ripper_cw):
        from repro.logic.analysis import is_sentence

        theory = ripper_cw.theory()
        assert all(is_sentence(sentence) for sentence in theory)
        # 4 facts + 1 uniqueness + 1 domain closure + 2 completion axioms
        assert len(theory) == 8

    def test_ph1_is_a_model_of_the_theory(self, ripper_cw):
        from repro.logical.models import is_model
        from repro.logical.ph import ph1

        assert is_model(ph1(ripper_cw), ripper_cw)


class TestFunctionalUpdates:
    def test_with_fact(self, tiny_unknown_cw):
        updated = tiny_unknown_cw.with_fact("P", ("b",))
        assert ("b",) in updated.facts_for("P")
        assert ("b",) not in tiny_unknown_cw.facts_for("P")

    def test_with_unequal(self, tiny_unknown_cw):
        updated = tiny_unknown_cw.with_unequal("a", "b")
        assert updated.are_known_distinct("a", "b")
        assert updated.is_fully_specified

    def test_fully_specified_adds_all_pairs(self, ripper_cw):
        full = ripper_cw.fully_specified()
        assert full.is_fully_specified
        assert full.facts == ripper_cw.facts

    def test_without_uniqueness_removes_all_pairs(self, teaches_cw):
        stripped = teaches_cw.without_uniqueness()
        assert stripped.uniqueness_axiom_count() == 0
        assert stripped.facts == teaches_cw.facts


class TestOneEncodingPerTheory:
    """Equal axioms give equal databases however they were written down."""

    def test_pairs_encoding_and_larger_cover_agree(self):
        from repro.workloads.generators import employee_database

        encoded = employee_database(60, seed=3)
        as_pairs = CWDatabase(encoded.constants, encoded.predicates, encoded.facts, encoded.unequal_pairs())
        wide = CWDatabase.from_unknowns(
            encoded.constants,
            encoded.predicates,
            encoded.facts,
            unknown=encoded.constants[:10] + tuple(encoded.unknown),
            explicit=[pair for pair in encoded.unequal_pairs() if set(pair) & set(encoded.constants[:10])],
        )
        for other in (as_pairs, wide):
            assert other == encoded
            assert hash(other) == hash(encoded)
            assert other.fingerprint() == encoded.fingerprint()
            assert (other.unknown, other.explicit) == (encoded.unknown, encoded.explicit)

    def test_different_axioms_differ(self, ripper_cw):
        stripped = ripper_cw.without_uniqueness()
        assert stripped != ripper_cw
        assert stripped.fingerprint() != ripper_cw.fingerprint()

    def test_explicit_pairs_must_name_constants(self):
        with pytest.raises(DatabaseError, match="unknown constants"):
            CWDatabase.from_unknowns(("a", "b"), {"P": 1}, unknown=["a"], explicit=[("a", "zzz")])
        with pytest.raises(DatabaseError, match="itself"):
            CWDatabase.from_unknowns(("a", "b"), {"P": 1}, unknown=["a"], explicit=[("a", "a")])
