"""Unit tests for the Tarskian evaluator's second-order quantifiers (relation enumeration)."""

import pytest

from repro.errors import CapacityError
from repro.logic.formulas import (
    Atom,
    Exists,
    Forall,
    Implies,
    Not,
    SecondOrderExists,
    SecondOrderForall,
)
from repro.logic.parser import parse_formula, parse_query
from repro.logic.queries import Query, boolean_query
from repro.logic.terms import Variable
from repro.logic.vocabulary import Vocabulary
from repro.physical.database import PhysicalDatabase
from repro.physical.evaluator import enumerate_relations, evaluate_query, satisfies

x, y = Variable("x"), Variable("y")


@pytest.fixture
def two_element_db():
    vocabulary = Vocabulary(("a", "b"), {"P": 1, "E": 2})
    return PhysicalDatabase(
        vocabulary,
        domain={"a", "b"},
        constants={"a": "a", "b": "b"},
        relations={"P": {("a",)}, "E": {("a", "b")}},
    )


class TestEnumeration:
    def test_counts_all_relations(self):
        relations = list(enumerate_relations({"a", "b"}, 1))
        assert len(relations) == 4  # subsets of a 2-element set

    def test_empty_relation_comes_first(self):
        relations = list(enumerate_relations({"a", "b"}, 1))
        assert relations[0] == frozenset()

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            list(enumerate_relations(set(range(10)), 2, max_relations=1000))


class TestSatisfaction:
    def test_existential_finds_witness_relation(self, two_element_db):
        # There is a unary Q containing exactly the P elements.
        formula = SecondOrderExists(
            "Q", 1, parse_formula("forall x. (Q(x) -> P(x)) & (P(x) -> Q(x))")
        )
        assert satisfies(two_element_db, formula)

    def test_existential_fails_when_impossible(self, two_element_db):
        # No unary Q can contain everything and nothing at once.
        formula = SecondOrderExists(
            "Q", 1, parse_formula("(forall x. Q(x)) & (forall x. ~Q(x))")
        )
        assert not satisfies(two_element_db, formula)

    def test_universal_over_relations(self, two_element_db):
        # Every unary Q satisfies: Q(a) or not Q(a).
        formula = SecondOrderForall("Q", 1, parse_formula("Q('a') | ~Q('a')"))
        assert satisfies(two_element_db, formula)
        formula_false = SecondOrderForall("Q", 1, parse_formula("Q('a')"))
        assert not satisfies(two_element_db, formula_false)

    def test_quantified_relation_shadows_stored_one(self, two_element_db):
        # Even though stored P = {a}, exists P with P(b).
        formula = SecondOrderExists("P", 1, parse_formula("P('b')"))
        assert satisfies(two_element_db, formula)

    def test_first_order_parts_still_work(self, two_element_db):
        assert satisfies(two_element_db, parse_formula("exists x. E('a', x)"))
        assert not satisfies(two_element_db, parse_formula("forall x. E(x, x)"))

    def test_graph_2_colorability_as_so_query(self, two_element_db):
        # E = {(a,b)} is 2-colorable: exists C with endpoints colored differently.
        formula = SecondOrderExists(
            "C",
            1,
            parse_formula("forall x. forall y. E(x, y) -> ((C(x) & ~C(y)) | (~C(x) & C(y)))"),
        )
        assert satisfies(two_element_db, formula)


class TestQueries:
    def test_so_query_answers(self, two_element_db):
        # x such that some unary Q holds of x and is contained in P.
        formula = SecondOrderExists("Q", 1, parse_formula("Q(x) & forall y. Q(y) -> P(y)"))
        query = Query((x,), formula)
        assert evaluate_query(two_element_db, query) == frozenset({("a",)})

    def test_boolean_so_query(self, two_element_db):
        query = boolean_query(SecondOrderForall("Q", 1, parse_formula("Q('a') | ~Q('a')")))
        assert evaluate_query(two_element_db, query) == frozenset({()})
