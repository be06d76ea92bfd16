"""Tests for the calculus-to-algebra compiler.

The key property: on databases whose active domain equals the domain (which
is the case for every ``Ph1``/``Ph2`` database), the compiled plan computes
exactly the same answers as the Tarskian evaluator.
"""

import pytest

from repro.errors import UnsupportedFormulaError
from repro.logic.formulas import SecondOrderExists
from repro.logic.parser import parse_formula, parse_query
from repro.logic.queries import Query
from repro.logic.terms import Variable
from repro.physical.compiler import compile_query, evaluate_query_algebra
from repro.physical.evaluator import evaluate_query


QUERIES = [
    "(x) . PHILOSOPHER(x)",
    "(x) . TEACHES('socrates', x)",
    "(x, y) . TEACHES(x, y)",
    "(x, y) . exists z. TEACHES(x, z) & TEACHES(z, y)",
    "(x) . PHILOSOPHER(x) & ~TEACHES('socrates', x)",
    "(x) . ~(exists y. TEACHES(y, x))",
    "(x) . forall y. TEACHES(x, y) -> PHILOSOPHER(y)",
    "(x, y) . TEACHES(x, y) | TEACHES(y, x)",
    "(x) . exists y. TEACHES(x, y) & ~(x = y)",
    "(x, y) . x = y & PHILOSOPHER(x)",
    "() . exists x. TEACHES(x, 'plato')",
    "() . forall x. PHILOSOPHER(x)",
    "(x) . TEACHES(x, x)",
    "(x) . PHILOSOPHER(x) & 'socrates' = 'socrates'",
    "(x) . PHILOSOPHER(x) & ~('socrates' = 'socrates')",
]


class TestAgreementWithTarskianEvaluation:
    @pytest.mark.parametrize("text", QUERIES)
    def test_same_answers_as_direct_evaluation(self, teaches_physical, text):
        query = parse_query(text)
        direct = evaluate_query(teaches_physical, query)
        compiled = evaluate_query_algebra(teaches_physical, query)
        assert compiled == direct

    def test_head_variable_missing_from_formula(self, teaches_physical):
        query = parse_query("(x, extra) . PHILOSOPHER(x)")
        compiled = evaluate_query_algebra(teaches_physical, query)
        direct = evaluate_query(teaches_physical, query)
        assert compiled == direct


class TestCompilerSpecifics:
    def test_repeated_variable_in_atom_forces_equality(self, teaches_physical):
        query = parse_query("(x) . TEACHES(x, x)")
        assert evaluate_query_algebra(teaches_physical, query) == frozenset()

    def test_second_order_rejected(self, teaches_physical):
        query = Query((), SecondOrderExists("Q", 1, parse_formula("exists x. Q(x)")))
        with pytest.raises(UnsupportedFormulaError):
            compile_query(query, teaches_physical)

    def test_compiled_plan_columns_follow_head_order(self, teaches_physical):
        query = parse_query("(y, x) . TEACHES(x, y)")
        plan = compile_query(query, teaches_physical)
        assert plan.columns == ("y", "x")

    def test_extension_atoms_compile_to_operators(self, ripper_cw):
        from repro.approx.alpha import AlphaAtom
        from repro.logical.ph import ph2
        from repro.physical.plan import AntiJoin

        storage = ph2(ripper_cw)
        x = Variable("x")
        query = Query((x,), AlphaAtom("MURDERER", (x,)))
        compiled = evaluate_query_algebra(storage, query)
        direct = evaluate_query(storage, query)
        assert compiled == direct
        assert isinstance(compile_query(query, storage).source, AntiJoin)
