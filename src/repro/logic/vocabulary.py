"""Relational vocabularies (Section 2.1 of the paper).

A relational vocabulary ``L`` consists of finitely many constant symbols and
finitely many predicate symbols (each with a fixed arity), including
equality, and no function symbols.  :class:`Vocabulary` captures exactly
that, and offers the checks the rest of the library relies on:

* validating that a formula or query only uses symbols of the vocabulary
  with the right arities;
* extending a vocabulary with new predicates (the ``NE`` relation of
  ``Ph2(LB)``, the primed predicates and ``H`` of the precise simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import VocabularyError
from repro.logic.formulas import (
    Atom,
    Equals,
    ExtensionAtom,
    Formula,
    SecondOrderExists,
    SecondOrderForall,
    walk,
)
from repro.logic.terms import Constant, Variable

__all__ = ["Vocabulary", "EQUALITY", "NE_PREDICATE", "PE_PREDICATE"]

#: Name reserved for the built-in equality predicate.
EQUALITY = "="

#: Name of the inequality relation added by ``Ph2(LB)`` (Sections 3.2 and 5).
NE_PREDICATE = "NE"

#: Name reserved for the derived "possibly equal" relation ``PE`` — the
#: complement of ``NE`` over the active domain — that compiled ``alpha_P``
#: plans join against (:meth:`repro.physical.database.PhysicalDatabase.possibly_equal`).
PE_PREDICATE = "~NE"


@dataclass(frozen=True)
class Vocabulary:
    """A finite relational vocabulary: constants plus predicates with arities.

    Parameters
    ----------
    constants:
        The constant symbols, as strings.  Order is preserved (it matters for
        deterministic enumeration) but duplicates are rejected.
    predicates:
        Mapping from predicate name to arity.  Equality is implicit and must
        not be listed.
    """

    constants: tuple[str, ...]
    predicates: Mapping[str, int] = field(default_factory=dict)

    def __init__(self, constants: Iterable[str] = (), predicates: Mapping[str, int] | None = None) -> None:
        names = tuple(constants)
        seen: set[str] = set()
        for name in names:
            if not isinstance(name, str) or not name:
                raise VocabularyError(f"constant symbols must be non-empty strings, got {name!r}")
            if name in seen:
                raise VocabularyError(f"duplicate constant symbol {name!r}")
            seen.add(name)
        preds = dict(predicates or {})
        for pred, arity in preds.items():
            if not isinstance(pred, str) or not pred:
                raise VocabularyError(f"predicate names must be non-empty strings, got {pred!r}")
            if pred == EQUALITY:
                raise VocabularyError("equality is built in and must not be declared")
            if pred == PE_PREDICATE:
                raise VocabularyError(f"{PE_PREDICATE!r} is derived from {NE_PREDICATE!r} and must not be declared")
            if not isinstance(arity, int) or arity < 1:
                raise VocabularyError(f"predicate {pred!r} must have a positive integer arity, got {arity!r}")
        object.__setattr__(self, "constants", names)
        object.__setattr__(self, "predicates", preds)

    def __hash__(self) -> int:
        # The generated hash would try to hash the predicates dict; hash a
        # canonical immutable view instead so vocabularies can live in sets.
        return hash((self.constants, tuple(sorted(self.predicates.items()))))

    # Mapping-style helpers -------------------------------------------------

    @property
    def constant_set(self) -> frozenset[str]:
        """The constant symbols as a set (written ``C_L`` in the paper)."""
        return frozenset(self.constants)

    def arity(self, predicate: str) -> int:
        """Return the arity of *predicate*; raise if it is not declared."""
        try:
            return self.predicates[predicate]
        except KeyError:
            raise VocabularyError(f"unknown predicate {predicate!r}") from None

    def has_predicate(self, predicate: str) -> bool:
        return predicate in self.predicates

    def has_constant(self, constant: str) -> bool:
        return constant in self.constant_set

    # Derived vocabularies ---------------------------------------------------

    def with_predicates(self, extra: Mapping[str, int]) -> "Vocabulary":
        """Return a copy extended with *extra* predicates.

        Redeclaring an existing predicate with a different arity is an error;
        redeclaring it with the same arity is a no-op.
        """
        merged = dict(self.predicates)
        for pred, arity in extra.items():
            if pred in merged and merged[pred] != arity:
                raise VocabularyError(
                    f"predicate {pred!r} already declared with arity {merged[pred]}, cannot redeclare as {arity}"
                )
            merged[pred] = arity
        return Vocabulary(self.constants, merged)

    def with_constants(self, extra: Iterable[str]) -> "Vocabulary":
        """Return a copy extended with the constant symbols in *extra*."""
        existing = self.constant_set
        added = [name for name in extra if name not in existing]
        return Vocabulary(self.constants + tuple(added), self.predicates)

    def with_ne(self) -> "Vocabulary":
        """Return the vocabulary ``L'`` of Section 3.2: ``L`` plus binary ``NE``."""
        return self.with_predicates({NE_PREDICATE: 2})

    # Validation --------------------------------------------------------------

    def validate_formula(self, formula: Formula, allow_extra_predicates: Iterable[str] = ()) -> None:
        """Check that *formula* only uses symbols declared in this vocabulary.

        Second-order quantified predicates and the names listed in
        *allow_extra_predicates* are exempt from the predicate check (their
        arity is still verified against the quantifier that binds them when
        possible).  Extension atoms are exempt entirely: their meaning is
        supplied by the evaluator, not the vocabulary.
        """
        extra = set(allow_extra_predicates)
        bound_predicates: dict[str, int] = {}
        self._validate(formula, extra, bound_predicates)

    def _validate(self, formula: Formula, extra: set[str], bound: dict[str, int]) -> None:
        if isinstance(formula, (SecondOrderExists, SecondOrderForall)):
            inner = dict(bound)
            inner[formula.predicate] = formula.arity
            self._validate(formula.body, extra, inner)
            return
        if isinstance(formula, ExtensionAtom):
            self._validate_terms(formula.args)
            return
        if isinstance(formula, Atom):
            self._validate_terms(formula.args)
            name = formula.predicate
            if name in bound:
                expected = bound[name]
            elif name in extra:
                expected = None
            elif self.has_predicate(name):
                expected = self.arity(name)
            else:
                raise VocabularyError(f"formula uses undeclared predicate {name!r}")
            if expected is not None and expected != len(formula.args):
                raise VocabularyError(
                    f"predicate {name!r} has arity {expected} but is applied to {len(formula.args)} arguments"
                )
            return
        if isinstance(formula, Equals):
            self._validate_terms((formula.left, formula.right))
            return
        for child in formula.children():
            self._validate(child, extra, bound)

    def _validate_terms(self, terms: Iterable[object]) -> None:
        for term in terms:
            if isinstance(term, Constant) and not self.has_constant(term.name):
                raise VocabularyError(f"formula uses undeclared constant {term.name!r}")
            if not isinstance(term, (Constant, Variable)):
                raise VocabularyError(f"not a term: {term!r}")

    def predicates_used(self, formula: Formula) -> frozenset[str]:
        """Return the names of the (free, non-equality) predicates in *formula*."""
        bound: set[str] = set()
        used: set[str] = set()
        for node in walk(formula):
            if isinstance(node, (SecondOrderExists, SecondOrderForall)):
                bound.add(node.predicate)
            elif isinstance(node, Atom) and not isinstance(node, ExtensionAtom):
                used.add(node.predicate)
        return frozenset(used - bound)
