"""Unit tests for physical databases (interpretations)."""

import pytest

from repro.errors import DatabaseError, VocabularyError
from repro.logic.vocabulary import Vocabulary
from repro.physical.database import PhysicalDatabase


@pytest.fixture
def vocabulary():
    return Vocabulary(("a", "b"), {"P": 1, "R": 2})


@pytest.fixture
def database(vocabulary):
    return PhysicalDatabase(
        vocabulary,
        domain={"a", "b", "c"},
        constants={"a": "a", "b": "b"},
        relations={"P": {("a",)}, "R": {("a", "b"), ("b", "c")}},
    )


class TestConstruction:
    def test_missing_relations_default_to_empty(self, vocabulary):
        db = PhysicalDatabase(vocabulary, {"a", "b"}, {"a": "a", "b": "b"})
        assert len(db.relation("P")) == 0
        assert len(db.relation("R")) == 0

    def test_empty_domain_rejected(self, vocabulary):
        with pytest.raises(DatabaseError):
            PhysicalDatabase(vocabulary, set(), {"a": "a", "b": "b"})

    def test_every_constant_needs_an_interpretation(self, vocabulary):
        with pytest.raises(DatabaseError):
            PhysicalDatabase(vocabulary, {"a"}, {"a": "a"})

    def test_constant_value_must_be_in_domain(self, vocabulary):
        with pytest.raises(DatabaseError):
            PhysicalDatabase(vocabulary, {"a"}, {"a": "a", "b": "zzz"})

    def test_undeclared_constants_rejected(self, vocabulary):
        with pytest.raises(VocabularyError):
            PhysicalDatabase(vocabulary, {"a", "b"}, {"a": "a", "b": "b", "c": "a"})

    def test_undeclared_relation_rejected(self, vocabulary):
        with pytest.raises(VocabularyError):
            PhysicalDatabase(vocabulary, {"a", "b"}, {"a": "a", "b": "b"}, {"S": {("a",)}})

    def test_relation_values_must_be_in_domain(self, vocabulary):
        with pytest.raises(DatabaseError):
            PhysicalDatabase(vocabulary, {"a", "b"}, {"a": "a", "b": "b"}, {"P": {("zzz",)}})

    def test_relation_arity_checked(self, vocabulary):
        with pytest.raises(DatabaseError):
            PhysicalDatabase(vocabulary, {"a", "b"}, {"a": "a", "b": "b"}, {"P": {("a", "b")}})


class TestAccessors(object):
    def test_constant_value(self, database):
        assert database.constant_value("a") == "a"
        with pytest.raises(DatabaseError):
            database.constant_value("zzz")

    def test_relation_lookup(self, database):
        assert ("a", "b") in database.relation("R")
        with pytest.raises(DatabaseError):
            database.relation("S")

    def test_active_domain(self, database):
        assert database.active_domain() == frozenset({"a", "b", "c"})

    def test_total_tuples(self, database):
        assert database.total_tuples() == 3

    def test_equality_compares_contents(self, database, vocabulary):
        clone = PhysicalDatabase(
            vocabulary,
            {"a", "b", "c"},
            {"a": "a", "b": "b"},
            {"P": {("a",)}, "R": {("a", "b"), ("b", "c")}},
        )
        assert clone == database
        assert hash(clone) == hash(database)

    def test_describe_mentions_relations(self, database):
        text = database.describe()
        assert "P" in text and "R" in text


class TestUpdates:
    def test_with_relation_replaces_contents(self, database):
        updated = database.with_relation("P", {("b",)})
        assert ("b",) in updated.relation("P")
        assert ("a",) not in updated.relation("P")
        # original untouched
        assert ("a",) in database.relation("P")

    def test_with_relation_requires_declared_predicate(self, database):
        with pytest.raises(VocabularyError):
            database.with_relation("S", {("a",)})

    def test_with_new_predicate_extends_vocabulary(self, database):
        updated = database.with_new_predicate("S", 1, {("c",)})
        assert updated.vocabulary.arity("S") == 1
        assert ("c",) in updated.relation("S")

    def test_restricted_to_sub_vocabulary(self, database):
        sub = Vocabulary(("a",), {"P": 1})
        reduct = database.restricted_to(sub)
        assert set(reduct.relations) == {"P"}
        assert reduct.constants == {"a": "a"}

    def test_restricted_to_missing_predicate_fails(self, database):
        with pytest.raises(VocabularyError):
            database.restricted_to(Vocabulary(("a",), {"S": 1}))

    def test_map_domain_applies_h_everywhere(self, database):
        mapping = {"a": "a", "b": "a", "c": "c"}
        image = database.map_domain(mapping)
        assert image.domain == frozenset({"a", "c"})
        assert image.constant_value("b") == "a"
        assert ("a", "a") in image.relation("R")
        assert ("a", "c") in image.relation("R")


class TestPossiblyEqual:
    """``PE``, the derived complement of ``NE`` that compiled ``alpha_P`` plans join against."""

    @pytest.fixture
    def storage(self):
        from repro.logical.database import CWDatabase
        from repro.logical.ph import ph2

        # a, b, c known and pairwise distinct; n is a null known only to differ from a.
        database = CWDatabase(
            ("a", "b", "c", "n"),
            {"P": 1},
            {"P": {("a",)}},
            [("a", "b"), ("a", "c"), ("b", "c"), ("a", "n")],
        )
        return database, ph2(database)

    def test_complement_of_ne_in_both_orientations_with_reflexive_pairs(self, storage):
        __, physical = storage
        assert physical.possibly_equal().tuples == {
            ("a", "a"), ("b", "b"), ("c", "c"), ("n", "n"),
            ("b", "n"), ("n", "b"), ("c", "n"), ("n", "c"),
        }  # fmt: skip

    def test_one_orientation_of_ne_is_enough_to_exclude_a_pair(self, vocabulary):
        database = PhysicalDatabase(
            vocabulary.with_predicates({"NE": 2}), {"a", "b"}, {"a": "a", "b": "b"}, {"NE": {("a", "b")}}
        )
        assert database.possibly_equal().tuples == {("a", "a"), ("b", "b")}

    def test_without_ne_every_pair_is_possibly_equal(self, database):
        assert len(database.possibly_equal()) == len(database.active_domain()) ** 2

    def test_virtual_and_materialized_ne_derive_the_same_relation(self, storage):
        from repro.logical.ph import ph2

        database, physical = storage
        assert ph2(database, virtual_ne=True).possibly_equal() == physical.possibly_equal()

    def test_served_under_the_reserved_name_only(self, storage):
        from repro.logic.vocabulary import PE_PREDICATE
        from repro.logical.ph import ph2
        from repro.physical.statistics import statistics_payload

        database, physical = storage
        assert physical.relation(PE_PREDICATE) is physical.possibly_equal()
        assert PE_PREDICATE not in physical.vocabulary.predicates
        assert PE_PREDICATE not in physical.relations and not physical.has_relation(PE_PREDICATE)
        assert PE_PREDICATE not in statistics_payload(physical)["relations"]
        untouched = ph2(database)
        assert physical.fingerprint() == untouched.fingerprint()
        assert physical.total_tuples() == untouched.total_tuples()

    def test_the_reserved_name_cannot_be_declared(self):
        from repro.logic.vocabulary import PE_PREDICATE

        with pytest.raises(VocabularyError, match="derived"):
            Vocabulary(("a",), {PE_PREDICATE: 2})

    def test_concurrent_first_touch_builds_one_relation(self, storage):
        import sys
        import threading

        __, physical = storage
        barrier = threading.Barrier(8)
        seen = []

        def touch():
            barrier.wait(timeout=10)
            seen.append(physical.possibly_equal())

        threads = [threading.Thread(target=touch) for __ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(relation is seen[0] for relation in seen)
        assert physical.possibly_equal() is seen[0]
