"""Explanations for certain-answer decisions.

Theorem 1 does more than give an algorithm: it says *why* a tuple fails to
be a certain answer — there is a respecting mapping ``h`` (equivalently, a
model ``h(Ph1(LB))`` of the theory) in which the query does not hold of the
tuple's image.  This module surfaces that witness:

* :func:`explain_non_answer` returns the counterexample mapping and model
  for a tuple outside ``Q(LB)`` (or ``None`` if the tuple is in fact a
  certain answer);
* :func:`explain_answer` returns the *per-model* evidence for a certain
  answer: every canonical model together with the image of the tuple in it
  (all of which satisfy the query);
* :func:`why_unknown` specializes the first function to the common question
  "why is this negative fact not certain?", reporting which constants the
  counterexample collapses.

These helpers are aimed at interactive use (the CLI and the examples); the
evaluators themselves do not pay for explanation bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import FormulaError
from repro.logic.queries import Query
from repro.logical.database import CWDatabase
from repro.logical.mappings import DEFAULT_MAX_MAPPINGS, enumerate_canonical_mappings
from repro.logical.ph import ph1
from repro.physical.database import PhysicalDatabase
from repro.physical.evaluator import evaluate_query

__all__ = ["CounterExample", "explain_non_answer", "explain_answer", "why_unknown"]


@dataclass(frozen=True)
class CounterExample:
    """A witness that a tuple is not a certain answer.

    Attributes
    ----------
    candidate:
        The tuple of constants that was tested.
    mapping:
        A respecting mapping ``h`` under which the query fails.
    image:
        The tuple's image ``h(candidate)``.
    model:
        The model ``h(Ph1(LB))`` in which ``image`` does not satisfy the query.
    collapsed:
        The groups of constants the mapping identifies (only groups of two or
        more constants are listed) — usually the most readable part of the
        explanation.
    """

    candidate: tuple[str, ...]
    mapping: dict[str, str]
    image: tuple[str, ...]
    model: PhysicalDatabase
    collapsed: tuple[tuple[str, ...], ...]

    def describe(self) -> str:
        """One-paragraph human-readable explanation."""
        if self.collapsed:
            groups = "; ".join("{" + ", ".join(group) + "}" for group in self.collapsed)
            reason = f"in the possible world where {groups} denote the same object"
        else:
            reason = "already in the minimal possible world (no constants identified)"
        head = ", ".join(self.candidate) if self.candidate else "<the sentence>"
        return f"({head}) is not a certain answer: {reason}, the query does not hold of its image."

    def __hash__(self) -> int:
        return hash((self.candidate, self.image, tuple(sorted(self.mapping.items()))))


def _collapsed_groups(mapping: dict[str, str]) -> tuple[tuple[str, ...], ...]:
    groups: dict[str, list[str]] = {}
    for source in mapping:
        groups.setdefault(mapping[source], []).append(source)
    nontrivial = [tuple(sorted(members)) for members in groups.values() if len(members) > 1]
    return tuple(sorted(nontrivial))


def explain_non_answer(
    database: CWDatabase,
    query: Query,
    candidate: tuple[str, ...],
    max_mappings: int = DEFAULT_MAX_MAPPINGS,
) -> CounterExample | None:
    """Find a counterexample model for *candidate*, or ``None`` if it is certain.

    The search walks the canonical respecting mappings (one per kernel); by
    Theorem 1 the candidate is a certain answer exactly when no mapping
    produces a counterexample, so ``None`` means membership in ``Q(LB)``.
    """
    if len(candidate) != query.arity:
        raise FormulaError(
            f"candidate has {len(candidate)} components but the query has arity {query.arity}"
        )
    unknown = set(candidate) - set(database.constants)
    if unknown:
        raise FormulaError(f"candidate mentions unknown constants: {sorted(unknown)}")

    base = ph1(database)
    for mapping in enumerate_canonical_mappings(database, max_mappings):
        model = base.map_domain(mapping)
        image = tuple(mapping[value] for value in candidate)
        if image not in evaluate_query(model, query):
            return CounterExample(
                candidate=tuple(candidate),
                mapping=dict(mapping),
                image=image,
                model=model,
                collapsed=_collapsed_groups(mapping),
            )
    return None


def explain_answer(
    database: CWDatabase,
    query: Query,
    candidate: tuple[str, ...],
    max_mappings: int = DEFAULT_MAX_MAPPINGS,
) -> Iterator[tuple[dict[str, str], PhysicalDatabase]]:
    """Yield every canonical (mapping, model) pair as evidence for a certain answer.

    Raises ``FormulaError`` if the candidate turns out not to be certain —
    use :func:`explain_non_answer` first when unsure.
    """
    base = ph1(database)
    for mapping in enumerate_canonical_mappings(database, max_mappings):
        model = base.map_domain(mapping)
        image = tuple(mapping[value] for value in candidate)
        if image not in evaluate_query(model, query):
            raise FormulaError(
                f"{candidate!r} is not a certain answer; the mapping {mapping!r} is a counterexample"
            )
        yield dict(mapping), model


def why_unknown(
    database: CWDatabase,
    query: Query,
    candidate: tuple[str, ...],
) -> str:
    """Human-readable answer to "why is this not certain?" (or confirmation that it is)."""
    witness = explain_non_answer(database, query, candidate)
    if witness is None:
        head = ", ".join(candidate) if candidate else "<the sentence>"
        return f"({head}) IS a certain answer: it holds in every model of the theory."
    return witness.describe()
