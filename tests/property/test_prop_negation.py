"""Property test: every evaluation of ``alpha_P`` agrees, on negated atoms over nulls.

The approximation exists for one situation — a negated stored atom over a
database with nulls — so that situation has its own strategy
(:func:`tests.property.strategies.negation_cases`) and one property over
the whole engine matrix.  The oracles are the paper's own definitions, kept
apart from the serving path:

* explicit enumeration of the active-domain tuples with
  :meth:`~repro.approx.alpha.AlphaAtom.holds` (Lemma 10's graph test);
* the Tarskian evaluator on the ``mode="direct"`` rewrite (the same test,
  reached through the evaluator);
* the Tarskian evaluator on the ``mode="formula"`` rewrite
  (:func:`~repro.approx.alpha.build_alpha_formula`, the literal first-order
  formula of Lemma 10).

Against them: the compiled plan, naive and optimized with SIP on and off,
on the tuple-at-a-time and the column-batch executor at batch sizes
{1, 7, 1024}, over the materialized and the virtual ``NE`` encoding.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings

from repro.approx.alpha import AlphaAtom
from repro.approx.rewrite import rewrite_query
from repro.logic.formulas import walk
from repro.logic.queries import Query
from repro.logic.terms import Constant, Variable
from repro.logical.ph import ph2
from repro.physical.algebra import execute
from repro.physical.batch import execute_batched
from repro.physical.compiler import compile_query
from repro.physical.evaluator import evaluate_query
from repro.physical.optimizer import optimize
from tests.property.strategies import negation_cases

BATCH_SIZES = (1, 7, 1024)


def holds_enumeration(storage, atom: AlphaAtom) -> tuple[Query, frozenset[tuple]]:
    """``(vars) . alpha_P(args)`` and its answer by calling ``holds`` per tuple."""
    variables = tuple(dict.fromkeys(term for term in atom.args if isinstance(term, Variable)))
    domain = sorted(storage.active_domain())
    rows = set()
    for values in product(domain, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        arguments = tuple(
            storage.constant_value(term.name) if isinstance(term, Constant) else assignment[term]
            for term in atom.args
        )
        if atom.holds(storage, arguments):
            rows.add(values)
    return Query(variables, atom), frozenset(rows)


def assert_every_plan_answers(storage, query: Query, truth: frozenset[tuple]) -> None:
    naive_plan = compile_query(query, storage)
    assert execute(naive_plan, storage, use_indexes=False, vectorize=False).rows == truth
    for sip in (True, False):
        plan = optimize(naive_plan, storage, sip=sip)
        assert execute(plan, storage, vectorize=False).rows == truth
        for batch_rows in BATCH_SIZES:
            assert execute_batched(plan, storage, batch_rows=batch_rows).rows == truth


@settings(max_examples=60, deadline=None)
@given(case=negation_cases())
def test_compiled_alpha_agrees_with_holds_formula_and_tarskian(case):
    database, query = case
    direct = rewrite_query(query, "direct")
    answers = set()
    for virtual_ne in (False, True):
        storage = ph2(database, virtual_ne=virtual_ne)
        truth = evaluate_query(storage, direct)
        assert evaluate_query(storage, rewrite_query(query, "formula")) == truth
        assert_every_plan_answers(storage, direct, truth)
        for atom in walk(direct.formula):
            if isinstance(atom, AlphaAtom):
                atom_query, atom_truth = holds_enumeration(storage, atom)
                assert evaluate_query(storage, atom_query) == atom_truth
                assert_every_plan_answers(storage, atom_query, atom_truth)
        answers.add(truth)
    assert len(answers) == 1  # E10: both NE encodings answer identically
