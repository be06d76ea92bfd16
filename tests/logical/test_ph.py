"""Unit tests for the Ph1(LB) and Ph2(LB) constructions."""

from repro.logic.vocabulary import NE_PREDICATE
from repro.logical.ph import ph1, ph2
from repro.logical.unknowns import VirtualNERelation


class TestPh1:
    def test_domain_is_the_constants(self, ripper_cw):
        db = ph1(ripper_cw)
        assert db.domain == frozenset(ripper_cw.constants)

    def test_constants_interpret_themselves(self, ripper_cw):
        db = ph1(ripper_cw)
        assert all(db.constant_value(name) == name for name in ripper_cw.constants)

    def test_relations_hold_exactly_the_stored_facts(self, ripper_cw):
        db = ph1(ripper_cw)
        assert frozenset(db.relation("MURDERER")) == ripper_cw.facts_for("MURDERER")
        assert frozenset(db.relation("LONDONER")) == ripper_cw.facts_for("LONDONER")

    def test_no_ne_relation_in_ph1(self, ripper_cw):
        db = ph1(ripper_cw)
        assert not db.has_relation(NE_PREDICATE)


class TestPh2:
    def test_ne_holds_exactly_the_uniqueness_axioms_both_ways(self, ripper_cw):
        db = ph2(ripper_cw)
        ne = db.relation(NE_PREDICATE)
        assert ("disraeli", "dickens") in ne
        assert ("dickens", "disraeli") in ne
        assert ("disraeli", "jack") not in ne
        assert len(ne) == 2

    def test_fully_specified_ne_is_full_inequality(self, teaches_cw):
        db = ph2(teaches_cw)
        ne = db.relation(NE_PREDICATE)
        n = len(teaches_cw.constants)
        assert len(ne) == n * (n - 1)

    def test_ne_agrees_with_the_materialized_reference(self, ripper_cw):
        from tests.property.strategies import materialized_ph2

        ne = ph2(ripper_cw).relation(NE_PREDICATE)
        assert isinstance(ne, VirtualNERelation)
        assert frozenset(ne) == frozenset(materialized_ph2(ripper_cw).relation(NE_PREDICATE))

    def test_base_relations_unchanged_by_ph2(self, ripper_cw):
        db1 = ph1(ripper_cw)
        db2 = ph2(ripper_cw)
        for predicate in ripper_cw.predicates:
            assert frozenset(db1.relation(predicate)) == frozenset(db2.relation(predicate))
