"""Unit tests for exact certain-answer evaluation (Theorem 1 in executable form)."""

import pytest

from repro.errors import CapacityError
from repro.logic.formulas import SecondOrderExists
from repro.logic.parser import parse_formula, parse_query
from repro.logic.queries import Query, boolean_query
from repro.logical.database import CWDatabase
from repro.logical.exact import (
    CertainAnswerEvaluator,
    certain_answers,
    certainly_holds,
)


class TestFullySpecifiedDatabases:
    """Corollary 2: with no unknown values the logical answer equals the physical answer."""

    def test_positive_join_query(self, teaches_cw):
        query = parse_query("(x, y) . exists z. TEACHES(x, z) & TEACHES(z, y)")
        assert certain_answers(teaches_cw, query) == frozenset({("socrates", "aristotle")})

    def test_negation_query(self, teaches_cw):
        query = parse_query("(x) . PHILOSOPHER(x) & ~TEACHES('socrates', x)")
        assert certain_answers(teaches_cw, query) == frozenset({("socrates",), ("aristotle",)})

    def test_matches_physical_evaluation_for_every_fixture_query(self, teaches_cw, simple_queries):
        from repro.logical.ph import ph1
        from repro.physical.evaluator import evaluate_query

        for query in simple_queries.values():
            assert certain_answers(teaches_cw, query) == evaluate_query(ph1(teaches_cw), query)


class TestUnknownValues:
    def test_fact_about_unknown_constant_is_still_certain(self, ripper_cw):
        assert certainly_holds(ripper_cw, parse_formula("MURDERER('jack')"))

    def test_negative_fact_about_unknown_constant_is_not_certain(self, ripper_cw):
        # jack might be disraeli, so "disraeli is not the murderer" is not certain...
        assert not certainly_holds(ripper_cw, parse_formula("~MURDERER('disraeli')"))

    def test_negative_fact_between_known_constants_is_certain(self, teaches_cw):
        assert certainly_holds(teaches_cw, parse_formula("~TEACHES('plato', 'socrates')"))

    def test_unknown_value_blocks_negative_membership(self, tiny_unknown_cw):
        # P = {a}, b might equal a, so ~P(b) is not certain but P(a) is.
        assert certain_answers(tiny_unknown_cw, parse_query("(x) . P(x)")) == frozenset({("a",)})
        assert certain_answers(tiny_unknown_cw, parse_query("(x) . ~P(x)")) == frozenset()

    def test_adding_the_uniqueness_axiom_restores_the_negative_answer(self, tiny_unknown_cw):
        specified = tiny_unknown_cw.with_unequal("a", "b")
        assert certain_answers(specified, parse_query("(x) . ~P(x)")) == frozenset({("b",)})

    def test_disjunctive_knowledge(self):
        # P(a) holds; b and c might both be a.  "P(b) or P(c)" is not certain,
        # but "P(b) or b != a" is (either b collapses onto a or it does not).
        db = CWDatabase(("a", "b", "c"), {"P": 1}, {"P": [("a",)]}, [])
        assert not certainly_holds(db, parse_formula("P('b') | P('c')"))
        assert certainly_holds(db, parse_formula("P('b') | ~('b' = 'a')"))


class TestStrategies:
    QUERIES = [
        "(x) . P(x)",
        "(x) . ~P(x)",
        "(x, y) . R(x, y) & ~(x = y)",
        "() . exists x. forall y. R(x, y) -> P(y)",
        "(x) . forall y. R(y, x) -> P(x)",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_canonical_and_naive_enumeration_agree(self, text):
        db = CWDatabase(
            ("a", "b", "c"),
            {"P": 1, "R": 2},
            {"P": [("a",)], "R": [("a", "b"), ("b", "c")]},
            [("a", "b")],
        )
        query = parse_query(text)
        assert certain_answers(db, query, strategy="canonical") == certain_answers(db, query, strategy="all")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            CertainAnswerEvaluator(strategy="bogus")

    def test_capacity_error_on_large_candidate_space(self):
        db = CWDatabase(tuple(f"c{i}" for i in range(8)), {"R": 2})
        query = parse_query("(a, b, c, d, e, f, g) . R(a, b) | R(c, d) | R(e, f) | R(g, g)")
        with pytest.raises(CapacityError):
            CertainAnswerEvaluator(max_mappings=1000).certain_answers(db, query)


class TestSecondOrderQueries:
    def test_so_query_over_cw_database(self, tiny_unknown_cw):
        # "some unary relation contains exactly the P elements" is trivially certain.
        formula = SecondOrderExists("Q", 1, parse_formula("forall x. (Q(x) -> P(x)) & (P(x) -> Q(x))"))
        evaluator = CertainAnswerEvaluator()
        assert evaluator.certainly_holds(tiny_unknown_cw, formula)

    def test_so_query_sensitive_to_unknown_values(self, tiny_unknown_cw):
        # "every unary relation containing a also contains b" certain iff a=b possible... it is
        # false in the model where a != b, so not certain.
        formula = parse_formula("forall2 Q/1. Q('a') -> Q('b')")
        evaluator = CertainAnswerEvaluator()
        assert not evaluator.certainly_holds(tiny_unknown_cw, formula)
        # but it holds in the model collapsing a and b, so its negation is not certain either.
        from repro.logic.formulas import Not

        assert not evaluator.certainly_holds(tiny_unknown_cw, Not(formula))
