"""Tests for the approximation's treatment of second-order quantification.

Theorem 11's induction covers second-order existential and universal
quantification: the rewritten query treats a quantified predicate like an
ordinary stored predicate whose tuples are the candidate relation.  These
tests pin the mechanism that makes that work — ``AlphaAtom.holds``
reading the candidate relation instead of storage — and check soundness of
the whole pipeline on second-order queries.
"""

from repro.approx.alpha import AlphaAtom
from repro.approx.evaluator import ApproximateEvaluator
from repro.logic.parser import parse_formula
from repro.logic.queries import boolean_query
from repro.logic.terms import Variable
from repro.logical.exact import CertainAnswerEvaluator
from repro.logical.ph import ph2


class TestHoldsWithOverrides:
    def test_quantified_predicate_read_from_the_override(self, ripper_cw):
        storage = ph2(ripper_cw)
        atom = AlphaAtom("HYPOTHESIS", (Variable("x"),))
        # With an empty candidate relation every tuple is provably absent.
        assert atom.holds(storage, ("jack",), {"HYPOTHESIS": frozenset()})
        # With a candidate relation containing jack, and no uniqueness axioms
        # for jack, nothing is provably absent.
        candidate = frozenset({("jack",)})
        assert not atom.holds(storage, ("jack",), {"HYPOTHESIS": candidate})
        assert not atom.holds(storage, ("disraeli",), {"HYPOTHESIS": candidate})

    def test_stored_predicates_still_come_from_storage(self, ripper_cw):
        storage = ph2(ripper_cw)
        atom = AlphaAtom("MURDERER", (Variable("x"),))
        # An override for an unrelated predicate must not change the answer.
        assert atom.holds(storage, ("disraeli",), {"OTHER": frozenset()}) == atom.holds(
            storage, ("disraeli",)
        )

    def test_ne_override_is_respected(self, ripper_cw):
        storage = ph2(ripper_cw)
        atom = AlphaAtom("MURDERER", (Variable("x"),))
        # Pretend every pair were declared unequal: disraeli becomes provably innocent.
        all_pairs = frozenset(
            (left, right)
            for left in ripper_cw.constants
            for right in ripper_cw.constants
            if left != right
        )
        assert atom.holds(storage, ("disraeli",), {"NE": all_pairs})


class TestSecondOrderSoundness:
    SENTENCES = [
        "exists2 Q/1. forall x. Q(x) -> LONDONER(x)",
        "forall2 Q/1. (exists x. Q(x)) | (forall x. ~Q(x))",
        "exists2 Q/1. forall x. (Q(x) -> MURDERER(x)) & (MURDERER(x) -> Q(x))",
        "forall2 Q/1. exists x. Q(x) | LONDONER(x)",
    ]

    def test_approximation_is_sound_on_second_order_sentences(self, ripper_cw):
        approx = ApproximateEvaluator()
        exact = CertainAnswerEvaluator()
        for text in self.SENTENCES:
            sentence = parse_formula(text)
            if approx.holds(ripper_cw, sentence):
                assert exact.certainly_holds(ripper_cw, sentence), text

    def test_approximation_is_complete_on_fully_specified_second_order_sentences(self, ripper_cw):
        specified = ripper_cw.fully_specified()
        approx = ApproximateEvaluator()
        exact = CertainAnswerEvaluator()
        for text in self.SENTENCES:
            sentence = parse_formula(text)
            assert approx.holds(specified, sentence) == exact.certainly_holds(specified, sentence), text

    def test_rewritten_second_order_query_keeps_its_prefix(self, ripper_cw):
        approx = ApproximateEvaluator()
        query = boolean_query(parse_formula("exists2 Q/1. forall x. Q(x) -> ~LONDONER(x)"))
        rewritten = approx.rewrite(query)
        assert rewritten.prefix_class_name() == "SO-Sigma_1"
