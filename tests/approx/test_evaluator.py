"""Unit tests for the approximate evaluator A(Q, LB) = Q-hat(Ph2(LB))."""

import pytest

from repro.errors import UnsupportedFormulaError
from repro.logic.parser import parse_formula, parse_query
from repro.logical.exact import certain_answers
from repro.approx.evaluator import ApproximateEvaluator, approximate_answers, approximately_holds


class TestConfiguration:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ApproximateEvaluator(engine="bogus")

    def test_storage_is_ph2(self, ripper_cw):
        storage = ApproximateEvaluator().storage(ripper_cw)
        assert storage.has_relation("NE")

    def test_ne_is_read_off_the_encoding(self, ripper_cw):
        from repro.logical.unknowns import VirtualNERelation

        storage = ApproximateEvaluator().storage(ripper_cw)
        assert isinstance(storage.relation("NE"), VirtualNERelation)


class TestAgreementAcrossConfigurations:
    QUERIES = [
        "(x) . ~MURDERER(x)",
        "(x) . LONDONER(x) & ~MURDERER(x)",
        "(x, y) . LONDONER(x) & LONDONER(y) & ~(x = y)",
        "() . exists x. MURDERER(x) & LONDONER(x)",
        "(x) . forall y. MURDERER(y) -> ~(x = y)",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_all_modes_and_engines_agree(self, ripper_cw, text):
        query = parse_query(text)
        reference = approximate_answers(ripper_cw, query, mode="direct", engine="tarski")
        assert approximate_answers(ripper_cw, query, mode="formula", engine="tarski") == reference
        assert approximate_answers(ripper_cw, query, mode="direct", engine="algebra") == reference
        assert approximate_answers(ripper_cw, query, mode="formula", engine="algebra") == reference
        assert approximate_answers(ripper_cw, query, mode="direct", engine="auto") == reference

    @pytest.mark.parametrize("text", QUERIES)
    def test_soundness_on_the_ripper_database(self, ripper_cw, text):
        query = parse_query(text)
        assert approximate_answers(ripper_cw, query) <= certain_answers(ripper_cw, query)


class TestKnownAnswers:
    def test_approximation_misses_unprovable_negative_facts(self, ripper_cw):
        # "x is not the murderer" is provable for nobody: jack IS the murderer and
        # every other gentleman might be jack.
        query = parse_query("(x) . ~MURDERER(x)")
        assert approximate_answers(ripper_cw, query) == frozenset()

    def test_approximation_finds_provable_negative_facts(self, ripper_cw):
        specified = ripper_cw.fully_specified()
        query = parse_query("(x) . ~MURDERER(x)")
        assert approximate_answers(specified, query) == frozenset({("disraeli",), ("dickens",)})

    def test_boolean_convenience_wrapper(self, ripper_cw):
        assert approximately_holds(ripper_cw, parse_formula("exists x. MURDERER(x)"))
        assert not approximately_holds(ripper_cw, parse_formula("exists x. ~LONDONER(x)"))

    def test_second_order_query_with_tarski_engine(self, tiny_unknown_cw):
        formula = parse_formula("exists2 Q/1. forall x. (Q(x) -> P(x)) & (P(x) -> Q(x))")
        evaluator = ApproximateEvaluator()
        # On the fully specified database the approximation is complete
        # (Theorem 12 covers second-order queries too), so it derives the sentence.
        assert evaluator.holds(tiny_unknown_cw.fully_specified(), formula)
        # With the unknown value it stays sound but cannot certify the negative
        # branch Q(b) -> P(b), so it (soundly) fails to derive the sentence even
        # though the exact evaluator does.
        assert not evaluator.holds(tiny_unknown_cw, formula)
        from repro.logical.exact import CertainAnswerEvaluator

        assert CertainAnswerEvaluator().certainly_holds(tiny_unknown_cw, formula)

    def test_second_order_query_rejected_by_algebra_engine(self, tiny_unknown_cw):
        formula = parse_formula("exists2 Q/1. forall x. Q(x) -> P(x)")
        evaluator = ApproximateEvaluator(engine="algebra")
        with pytest.raises(UnsupportedFormulaError):
            evaluator.holds(tiny_unknown_cw, formula)

    def test_answers_on_storage_reuses_prebuilt_ph2(self, ripper_cw):
        evaluator = ApproximateEvaluator()
        storage = evaluator.storage(ripper_cw)
        query = parse_query("(x) . LONDONER(x)")
        assert evaluator.answers_on_storage(storage, query) == evaluator.answers(ripper_cw, query)
