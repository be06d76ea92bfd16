"""Property test: a second-order quantified predicate behaves like a stored one.

The Tarskian evaluator reads a predicate bound by ``exists2 Q/k`` or
``forall2 Q/k`` from the candidate relation of the current enumeration
step.  The definition it must meet: ``exists2 Q/k. phi`` holds on ``PB``
iff some relation ``R`` of arity ``k`` makes ``phi`` true on ``PB`` with
``Q`` *stored* as ``R`` (and ``forall2`` iff every one does).  The oracle
builds each of those databases and evaluates ``phi`` on it with no relation
assignment at all.

``phi`` always mentions ``Q`` through an ``alpha_Q`` atom (Lemma 10's
provable absence, which must read the candidate relation too) and through
a stored-style atom, under random first-order context over the shared
schema; sometimes it also re-binds ``Q`` in a nested second-order
quantifier.  Databases are ``Ph2`` of the shared CW strategy (so ``NE`` is
stored) with at most 3 constants, 2 when ``Q`` is binary.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.alpha import AlphaAtom
from repro.logic.analysis import free_variables
from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    SecondOrderExists,
    SecondOrderForall,
)
from repro.physical.database import PhysicalDatabase
from repro.physical.evaluator import enumerate_relations, satisfies
from tests.property.strategies import VARIABLE_NAMES, cw_databases, formulas, materialized_ph2, terms

QUANTIFIED = "Q"


@st.composite
def quantified_cases(draw) -> tuple[PhysicalDatabase, int, Formula]:
    """``(Ph2 storage, arity of Q, phi)``: *phi* is a sentence mentioning ``Q``."""
    arity = draw(st.integers(min_value=1, max_value=2))
    storage = materialized_ph2(draw(cw_databases(max_constants=3 if arity == 1 else 2, max_facts=4)))
    alpha = AlphaAtom(QUANTIFIED, tuple(draw(terms(VARIABLE_NAMES)) for __ in range(arity)))
    stored = Atom(QUANTIFIED, tuple(draw(terms(VARIABLE_NAMES)) for __ in range(arity)))
    context = draw(formulas(depth=2))
    shape = draw(st.sampled_from(["and", "alpha", "or", "implies", "not"]))
    if shape == "and":
        # Q in a conjunctive position bounds the quantified variables.
        phi: Formula = And((stored, Or((alpha, context))))
    elif shape == "alpha":
        phi = And((alpha, Or((stored, context))))
    elif shape == "or":
        phi = Or((And((alpha, context)), stored))
    elif shape == "implies":
        phi = Implies(stored, And((alpha, context)))
    else:
        phi = And((Not(alpha), Not(And((stored, context)))))
    if draw(st.booleans()):
        # Re-bind Q inside phi: the inner quantifier must shadow the outer Q.
        inner = Or((Atom(QUANTIFIED, stored.args), AlphaAtom(QUANTIFIED, alpha.args)))
        rebound = SecondOrderExists if draw(st.booleans()) else SecondOrderForall
        phi = And((phi, rebound(QUANTIFIED, arity, inner)))
    for variable in sorted(free_variables(phi), key=lambda variable: variable.name):
        phi = Exists((variable,), phi) if draw(st.booleans()) else Forall((variable,), phi)
    return storage, arity, phi


def stored_as(storage: PhysicalDatabase, arity: int, relation: frozenset[tuple]) -> PhysicalDatabase:
    """*storage* with ``Q`` stored as *relation*."""
    return storage.with_new_predicate(QUANTIFIED, arity, relation)


@settings(max_examples=80, deadline=None)
@given(quantified_cases())
def test_a_quantified_predicate_behaves_like_a_stored_one(case):
    storage, arity, phi = case
    truths = [
        satisfies(stored_as(storage, arity, relation), phi)
        for relation in enumerate_relations(storage.domain, arity)
    ]
    assert satisfies(storage, SecondOrderExists(QUANTIFIED, arity, phi)) == any(truths)
    assert satisfies(storage, SecondOrderForall(QUANTIFIED, arity, phi)) == all(truths)
