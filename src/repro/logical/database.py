"""Closed-world logical databases (Reiter's extended relational theories).

A :class:`CWDatabase` is the pair ``(L, T)`` of Section 2.2: a relational
vocabulary together with a theory consisting of atomic facts, uniqueness
axioms, the (implicit) domain closure axiom and the (implicit) completion
axioms.  Only the facts and the uniqueness axioms are stored — the other two
components are determined by them — exactly as the paper notes
("in practice it suffices to specify the atomic fact axioms and the
uniqueness axioms").

Unknown values are modelled by *missing* uniqueness axioms: when no axiom
``~(c_i = c_j)`` is present the database does not know whether ``c_i`` and
``c_j`` denote the same object.  A database with a uniqueness axiom for every
pair of distinct constants is *fully specified* and behaves exactly like a
physical database (Corollary 2).

**Immutability contract.**  A :class:`CWDatabase` is deeply immutable: the
vocabulary, the fact sets and the uniqueness axioms are all frozen at
construction time and every "update" (:meth:`CWDatabase.with_fact`, ...)
returns a fresh instance.  :meth:`CWDatabase.fingerprint` therefore
identifies the database *content* for its whole lifetime, which is what lets
the serving layer (:mod:`repro.service`) precompute ``Ph2(LB)`` once per
registered snapshot and key result caches on the fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import DatabaseError, VocabularyError
from repro.logic.formulas import Formula
from repro.logic.vocabulary import NE_PREDICATE, Vocabulary
from repro.logical.axioms import AtomicFact, UniquenessAxiom, theory_formulas

__all__ = ["CWDatabase"]


@dataclass(frozen=True)
class CWDatabase:
    """A closed-world logical database ``LB = (L, T)``.

    Parameters
    ----------
    constants:
        The constant symbols of ``L`` (order preserved, duplicates rejected).
    predicates:
        Mapping from predicate name to arity.
    facts:
        For each predicate, the set of stored atomic facts, each a tuple of
        constant names of the right arity.
    unequal:
        The uniqueness axioms, as pairs of distinct constant names.  Order
        inside a pair does not matter.
    """

    vocabulary: Vocabulary
    facts: Mapping[str, frozenset[tuple[str, ...]]]
    unequal: frozenset[frozenset[str]]

    def __init__(
        self,
        constants: Sequence[str],
        predicates: Mapping[str, int],
        facts: Mapping[str, Iterable[Sequence[str]]] | None = None,
        unequal: Iterable[tuple[str, str]] | None = None,
    ) -> None:
        vocabulary = Vocabulary(tuple(constants), dict(predicates))
        if not vocabulary.constants:
            raise DatabaseError("a CW logical database needs at least one constant symbol")
        if NE_PREDICATE in vocabulary.predicates:
            raise VocabularyError(
                f"{NE_PREDICATE!r} is reserved for the inequality relation of Ph2(LB) and cannot be a base predicate"
            )
        constant_set = vocabulary.constant_set

        fact_map: dict[str, frozenset[tuple[str, ...]]] = {}
        for predicate, rows in (facts or {}).items():
            if not vocabulary.has_predicate(predicate):
                raise VocabularyError(f"facts given for undeclared predicate {predicate!r}")
            arity = vocabulary.arity(predicate)
            normalized = set()
            for row in rows:
                values = tuple(row)
                if len(values) != arity:
                    raise DatabaseError(
                        f"fact {values!r} for predicate {predicate!r} does not match arity {arity}"
                    )
                for value in values:
                    if value not in constant_set:
                        raise DatabaseError(
                            f"fact {values!r} for predicate {predicate!r} mentions unknown constant {value!r}"
                        )
                normalized.add(values)
            fact_map[predicate] = frozenset(normalized)
        for predicate in vocabulary.predicates:
            fact_map.setdefault(predicate, frozenset())

        unequal_set: set[frozenset[str]] = set()
        for pair in unequal or ():
            left, right = pair
            if left not in constant_set or right not in constant_set:
                raise DatabaseError(f"uniqueness axiom mentions unknown constants: {pair!r}")
            axiom = UniquenessAxiom(left, right)
            unequal_set.add(axiom.pair)

        object.__setattr__(self, "vocabulary", vocabulary)
        object.__setattr__(self, "facts", fact_map)
        object.__setattr__(self, "unequal", frozenset(unequal_set))

    def __hash__(self) -> int:
        return hash((self.vocabulary, tuple(sorted((k, v) for k, v in self.facts.items())), self.unequal))

    def fingerprint(self) -> str:
        """A stable hex digest of the database content.

        Two databases have the same fingerprint exactly when they have the
        same constants (in order), predicates, facts and uniqueness axioms.
        Because instances are immutable the digest is computed once and
        cached; the service layer uses it as the database component of its
        cache keys.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            payload = json.dumps(
                {
                    "constants": list(self.constants),
                    "predicates": {name: arity for name, arity in sorted(self.predicates.items())},
                    "facts": {name: sorted(self.facts[name]) for name in sorted(self.facts)},
                    "unequal": sorted(sorted(pair) for pair in self.unequal),
                },
                separators=(",", ":"),
            )
            cached = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # Accessors ----------------------------------------------------------------

    @property
    def constants(self) -> tuple[str, ...]:
        """The constant symbols ``C`` of the vocabulary, in declaration order."""
        return self.vocabulary.constants

    @property
    def predicates(self) -> Mapping[str, int]:
        return self.vocabulary.predicates

    def facts_for(self, predicate: str) -> frozenset[tuple[str, ...]]:
        """The stored atomic facts for *predicate* (empty set if none)."""
        if not self.vocabulary.has_predicate(predicate):
            raise VocabularyError(f"unknown predicate {predicate!r}")
        return self.facts[predicate]

    def atomic_facts(self) -> list[AtomicFact]:
        """Every stored fact as an :class:`AtomicFact`, deterministically ordered."""
        result = []
        for predicate in sorted(self.facts):
            for row in sorted(self.facts[predicate]):
                result.append(AtomicFact(predicate, row))
        return result

    def uniqueness_axioms(self) -> list[UniquenessAxiom]:
        """Every uniqueness axiom, deterministically ordered."""
        return [UniquenessAxiom(*sorted(pair)) for pair in sorted(self.unequal, key=sorted)]

    def unequal_pairs(self) -> frozenset[tuple[str, str]]:
        """Uniqueness axioms as sorted 2-tuples (handy for CSV export and display)."""
        return frozenset(tuple(sorted(pair)) for pair in self.unequal)

    def are_known_distinct(self, left: str, right: str) -> bool:
        """True when the theory contains the axiom ``~(left = right)``."""
        if left == right:
            return False
        return frozenset((left, right)) in self.unequal

    # Structure ------------------------------------------------------------------

    @property
    def is_fully_specified(self) -> bool:
        """True when every pair of distinct constants has a uniqueness axiom.

        Fully specified databases represent no unknown values; by
        Corollary 2 their certain answers coincide with the answers of
        ``Ph1(LB)``.
        """
        n = len(self.constants)
        return len(self.unequal) == n * (n - 1) // 2

    def unknown_constants(self) -> frozenset[str]:
        """Every endpoint of a missing uniqueness pair.

        A constant is returned when some other constant is not declared
        distinct from it.  This is *not* the set ``U`` of the compact
        (virtual-``NE``) encoding at the end of Section 5: one null that may
        equal every other constant puts the whole constant set here, while
        :func:`~repro.logical.unknowns.compact_ne_encoding` covers the same
        missing pairs with a small vertex cover (on
        ``employee_database(300, seed=21)``: 378 of 378 constants here,
        15 in ``U``).  Derived once and cached on the instance (the
        ``_fingerprint`` immutability idiom): the info endpoint asks
        repeatedly, and the derivation is quadratic in the constants.
        """
        cached = self.__dict__.get("_unknown_constants")
        if cached is None:
            cached = frozenset(
                constant for pair in self.missing_uniqueness_pairs() for constant in pair
            )
            object.__setattr__(self, "_unknown_constants", cached)
        return cached

    def missing_uniqueness_pairs(self) -> frozenset[tuple[str, str]]:
        """Pairs of distinct constants with no uniqueness axiom (the unknowns).

        Cached on the instance like :meth:`unknown_constants`.
        """
        cached = self.__dict__.get("_missing_uniqueness_pairs")
        if cached is None:
            constants = self.constants
            missing = set()
            for index, left in enumerate(constants):
                for right in constants[index + 1:]:
                    if not self.are_known_distinct(left, right):
                        missing.add(tuple(sorted((left, right))))
            cached = frozenset(missing)
            object.__setattr__(self, "_missing_uniqueness_pairs", cached)
        return cached

    def size(self) -> int:
        """A simple size measure: number of facts plus uniqueness axioms plus constants."""
        return sum(len(rows) for rows in self.facts.values()) + len(self.unequal) + len(self.constants)

    # Theory -----------------------------------------------------------------------

    def theory(self) -> list[Formula]:
        """The full theory ``T`` (facts, uniqueness, domain closure, completion)."""
        return theory_formulas(self.constants, self.predicates, self.facts, self.unequal_pairs())

    # Functional updates -------------------------------------------------------------

    def with_fact(self, predicate: str, row: Sequence[str]) -> "CWDatabase":
        """Return a copy with one more atomic fact."""
        facts = {name: set(rows) for name, rows in self.facts.items()}
        facts.setdefault(predicate, set()).add(tuple(row))
        return CWDatabase(self.constants, dict(self.predicates), facts, self.unequal_pairs())

    def with_unequal(self, left: str, right: str) -> "CWDatabase":
        """Return a copy with one more uniqueness axiom."""
        pairs = set(self.unequal_pairs())
        pairs.add(tuple(sorted((left, right))))
        return CWDatabase(self.constants, dict(self.predicates), self.facts, pairs)

    def fully_specified(self) -> "CWDatabase":
        """Return the fully specified version: a uniqueness axiom for every pair."""
        constants = self.constants
        pairs = {
            (left, right)
            for index, left in enumerate(constants)
            for right in constants[index + 1:]
        }
        normalized = {tuple(sorted(pair)) for pair in pairs}
        return CWDatabase(self.constants, dict(self.predicates), self.facts, normalized)

    def without_uniqueness(self) -> "CWDatabase":
        """Return the copy with no uniqueness axioms at all (every identity unknown)."""
        return CWDatabase(self.constants, dict(self.predicates), self.facts, ())

    def describe(self) -> str:
        """Short human-readable summary used by examples and the harness."""
        n_facts = sum(len(rows) for rows in self.facts.values())
        status = "fully specified" if self.is_fully_specified else f"{len(self.unknown_constants())} unknown constants"
        return (
            f"{len(self.constants)} constants, {n_facts} facts, "
            f"{len(self.unequal)} uniqueness axioms ({status})"
        )
