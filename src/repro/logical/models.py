"""Models of a CW logical database.

A physical database ``PB`` is a model of ``LB = (L, T)`` when it satisfies
every sentence of ``T``.  Because the theory contains the domain closure
axiom, every model is finite, and — as the proof of Theorem 1 shows — every
model is (isomorphic to) an image ``h(Ph1(LB))`` for some respecting
mapping ``h``.  This module provides:

* :func:`is_model` — direct model checking against the full theory;
* :func:`enumerate_models` — the models ``h(Ph1(LB))`` for canonical ``h``,
  i.e. one representative per isomorphism class;
* :func:`certain_answers_by_model_checking` — the definitional (and very
  slow) certain-answer computation used by tests as an independent oracle
  for Theorem 1.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from repro.logic.queries import Query
from repro.logic.terms import Constant
from repro.logic.transform import substitute
from repro.logical.database import CWDatabase
from repro.logical.mappings import DEFAULT_MAX_MAPPINGS, enumerate_canonical_mappings
from repro.logical.ph import ph1
from repro.physical.database import PhysicalDatabase
from repro.physical.evaluator import evaluate_sentence, satisfies

__all__ = ["is_model", "enumerate_models", "certain_answers_by_model_checking"]


def is_model(physical: PhysicalDatabase, logical: CWDatabase) -> bool:
    """Check whether *physical* satisfies every sentence of the theory of *logical*.

    The physical database must interpret (at least) the vocabulary of the
    logical database; extra predicates are ignored.
    """
    for sentence in logical.theory():
        if not evaluate_sentence(physical, sentence):
            return False
    return True


def enumerate_models(
    database: CWDatabase, max_mappings: int = DEFAULT_MAX_MAPPINGS
) -> Iterator[PhysicalDatabase]:
    """Yield one model per isomorphism class: ``h(Ph1(LB))`` for canonical ``h``."""
    base = ph1(database)
    for mapping in enumerate_canonical_mappings(database, max_mappings):
        yield base.map_domain(mapping)


def certain_answers_by_model_checking(
    database: CWDatabase,
    query: Query,
    max_mappings: int = DEFAULT_MAX_MAPPINGS,
) -> frozenset[tuple[str, ...]]:
    """Certain answers computed straight from the definition.

    For every candidate tuple of constants ``c`` and every model ``PB`` of the
    theory, check that ``PB`` satisfies ``phi(c)`` — note that the tuple is
    substituted *as constant symbols* and each model interprets those symbols
    with its own constant assignment, exactly as in the definition
    ``Q(LB) = { c : T |=_f phi(c) }``.  Exponentially slower than
    :func:`repro.logical.exact.certain_answers`; used only as a test oracle.
    """
    constants = database.constants
    models = list(enumerate_models(database, max_mappings))
    answers = set()
    for candidate in product(constants, repeat=query.arity):
        grounding = {variable: Constant(value) for variable, value in zip(query.head, candidate)}
        grounded = substitute(query.formula, grounding)
        if all(satisfies(model, grounded, {}) for model in models):
            answers.add(candidate)
    return frozenset(answers)
