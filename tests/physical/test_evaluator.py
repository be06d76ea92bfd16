"""Unit tests for Tarskian first-order query evaluation over physical databases."""

import pytest

from repro.errors import EvaluationError
from repro.logic.formulas import SecondOrderExists
from repro.logic.parser import parse_formula, parse_query
from repro.logic.queries import TRUE_ANSWER, boolean_query
from repro.logic.terms import Variable
from repro.physical.evaluator import evaluate_query, evaluate_sentence, evaluate_term, satisfies

x = Variable("x")


class TestTermEvaluation:
    def test_constant_uses_interpretation(self, teaches_physical):
        from repro.logic.terms import Constant

        assert evaluate_term(teaches_physical, Constant("plato"), {}) == "plato"

    def test_unbound_variable_raises(self, teaches_physical):
        with pytest.raises(EvaluationError):
            evaluate_term(teaches_physical, x, {})

    def test_bound_variable_returns_assignment(self, teaches_physical):
        assert evaluate_term(teaches_physical, x, {x: "socrates"}) == "socrates"


class TestSatisfaction:
    def test_atom_lookup(self, teaches_physical):
        assert satisfies(teaches_physical, parse_formula("TEACHES('socrates', 'plato')"))
        assert not satisfies(teaches_physical, parse_formula("TEACHES('plato', 'socrates')"))

    def test_equality_is_true_identity(self, teaches_physical):
        assert satisfies(teaches_physical, parse_formula("'socrates' = 'socrates'"))
        assert not satisfies(teaches_physical, parse_formula("'socrates' = 'plato'"))

    def test_connectives(self, teaches_physical):
        assert satisfies(
            teaches_physical, parse_formula("TEACHES('socrates', 'plato') & ~TEACHES('plato', 'socrates')")
        )
        assert satisfies(
            teaches_physical, parse_formula("TEACHES('plato', 'socrates') | PHILOSOPHER('plato')")
        )
        assert satisfies(
            teaches_physical, parse_formula("TEACHES('plato', 'socrates') -> false")
        )
        assert satisfies(
            teaches_physical,
            parse_formula("TEACHES('socrates', 'plato') <-> PHILOSOPHER('socrates')"),
        )

    def test_quantifiers(self, teaches_physical):
        assert satisfies(teaches_physical, parse_formula("exists x. TEACHES('socrates', x)"))
        assert satisfies(teaches_physical, parse_formula("forall x. PHILOSOPHER(x)"))
        assert not satisfies(teaches_physical, parse_formula("forall x. exists y. TEACHES(x, y)"))

    def test_nested_alternation(self, teaches_physical):
        # Everyone who teaches someone is a philosopher.
        formula = parse_formula("forall x. (exists y. TEACHES(x, y)) -> PHILOSOPHER(x)")
        assert satisfies(teaches_physical, formula)

    def test_second_order_quantifiers_enumerate_relations(self, teaches_physical):
        # The one walker reads a quantified predicate from each candidate
        # relation; the enumeration cap is tested in test_second_order.py.
        assert satisfies(teaches_physical, SecondOrderExists("Q", 1, parse_formula("exists x. Q(x)")))
        assert not satisfies(teaches_physical, SecondOrderExists("Q", 1, parse_formula("exists x. Q(x) & ~Q(x)")))

    def test_top_bottom(self, teaches_physical):
        assert evaluate_sentence(teaches_physical, parse_formula("true"))
        assert not evaluate_sentence(teaches_physical, parse_formula("false"))


class TestQueryEvaluation:
    def test_unary_query(self, teaches_physical):
        query = parse_query("(x) . exists y. TEACHES(x, y)")
        assert evaluate_query(teaches_physical, query) == frozenset({("socrates",), ("plato",)})

    def test_binary_join_query(self, teaches_physical):
        query = parse_query("(x, y) . exists z. TEACHES(x, z) & TEACHES(z, y)")
        assert evaluate_query(teaches_physical, query) == frozenset({("socrates", "aristotle")})

    def test_negation_query(self, teaches_physical):
        query = parse_query("(x) . PHILOSOPHER(x) & ~TEACHES('socrates', x)")
        assert evaluate_query(teaches_physical, query) == frozenset({("socrates",), ("aristotle",)})

    def test_boolean_query_true(self, teaches_physical):
        assert evaluate_query(teaches_physical, boolean_query(parse_formula("exists x. TEACHES(x, 'plato')"))) == TRUE_ANSWER

    def test_boolean_query_false(self, teaches_physical):
        assert evaluate_query(teaches_physical, boolean_query(parse_formula("exists x. TEACHES(x, 'socrates')"))) == frozenset()

    def test_head_variable_not_in_formula_ranges_over_domain(self, teaches_physical):
        query = parse_query("(x, y) . PHILOSOPHER(x) & 'plato' = 'plato'")
        answers = evaluate_query(teaches_physical, query)
        assert len(answers) == 3 * 3

    def test_answers_are_over_the_domain_not_active_domain(self, teaches_physical):
        # extend domain with an element not mentioned anywhere
        bigger = teaches_physical
        query = parse_query("(x) . ~TEACHES(x, 'plato')")
        answers = evaluate_query(bigger, query)
        assert ("plato",) in answers
        assert ("aristotle",) in answers
