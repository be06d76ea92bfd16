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

**Storage: the paper's ``U`` / ``NE'`` encoding.**  Up to ``|C|(|C|-1)/2``
uniqueness axioms are stored the way Section 5 ends by recommending, because
"in practice most values in the database are known values":

* ``U`` (:attr:`CWDatabase.unknown`) — the unknown values: a vertex cover of
  the graph of missing uniqueness pairs;
* ``NE'`` (:attr:`CWDatabase.explicit`) — the axioms with an endpoint in
  ``U``, as ordered pairs in both orientations;

and ``~(a = b)`` is an axiom iff ``NE'(a, b)``, or ``a != b`` and neither is
in ``U``.  ``U`` is derived from the missing-pair graph at construction
(:func:`_greedy_vertex_cover`), so equal theories give
equal objects, hashes and fingerprints however they were written down.  On
``employee_database(300, seed=21)`` that is 15 entries for 65 703 axioms.
Membership, :meth:`~CWDatabase.unknown_constants` and
:meth:`~CWDatabase.missing_uniqueness_pairs` are answered from the encoding;
the quadratic views (:meth:`~CWDatabase.unequal_pairs`,
:meth:`~CWDatabase.uniqueness_axioms`, :meth:`~CWDatabase.theory`) are
derived on demand and never on the serving path.

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
        inside a pair does not matter.  :meth:`from_unknowns` takes the
        axioms as ``U`` and ``NE'`` instead.
    """

    vocabulary: Vocabulary
    facts: Mapping[str, frozenset[tuple[str, ...]]]
    unknown: frozenset[str]
    explicit: frozenset[tuple[str, str]]

    def __init__(
        self,
        constants: Sequence[str],
        predicates: Mapping[str, int],
        facts: Mapping[str, Iterable[Sequence[str]]] | None = None,
        unequal: Iterable[tuple[str, str]] | None = None,
    ) -> None:
        # Every constant unknown, and the given pairs as NE': exactly the axioms.
        constants = tuple(constants)
        self._initialize(constants, predicates, facts, constants, unequal or ())

    @classmethod
    def from_unknowns(
        cls,
        constants: Sequence[str],
        predicates: Mapping[str, int],
        facts: Mapping[str, Iterable[Sequence[str]]] | None = None,
        unknown: Iterable[str] = (),
        explicit: Iterable[tuple[str, str]] = (),
    ) -> "CWDatabase":
        """Build a database from the encoding: unknown values and ``NE'``.

        Every pair of distinct constants outside *unknown* is declared
        unequal; a pair touching *unknown* is declared unequal iff it is in
        *explicit* (either orientation).  Any *unknown* that covers the
        missing pairs is accepted: ``U`` is re-derived, so a larger cover of
        the same axioms gives an equal database.
        """
        database = cls.__new__(cls)
        database._initialize(constants, predicates, facts, unknown, explicit)
        return database

    def _initialize(self, constants, predicates, facts, unknown, explicit) -> None:
        vocabulary = Vocabulary(tuple(constants), dict(predicates))
        if not vocabulary.constants:
            raise DatabaseError("a CW logical database needs at least one constant symbol")
        if NE_PREDICATE in vocabulary.predicates:
            raise VocabularyError(
                f"{NE_PREDICATE!r} is reserved for the inequality relation of Ph2(LB) and cannot be a base predicate"
            )
        everything = vocabulary.constant_set

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
                    if value not in everything:
                        raise DatabaseError(
                            f"fact {values!r} for predicate {predicate!r} mentions unknown constant {value!r}"
                        )
                normalized.add(values)
            fact_map[predicate] = frozenset(normalized)
        for predicate in vocabulary.predicates:
            fact_map.setdefault(predicate, frozenset())

        unknown = frozenset(unknown)
        if not unknown <= everything:
            raise DatabaseError(f"unknown values mention undeclared constants: {sorted(unknown - everything)}")
        stated: dict[str, set[str]] = {}
        for pair in explicit:
            left, right = pair
            if left not in everything or right not in everything:
                raise DatabaseError(f"uniqueness axiom mentions unknown constants: {pair!r}")
            UniquenessAxiom(left, right)  # rejects an axiom between a constant and itself
            stated.setdefault(left, set()).add(right)
            stated.setdefault(right, set()).add(left)
        # The graph of missing uniqueness pairs, which U must cover.
        missing: dict[str, set[str]] = {}
        for name in unknown:
            for other in everything.difference(stated.get(name, ()), (name,)):
                missing.setdefault(name, set()).add(other)
                missing.setdefault(other, set()).add(name)
        cover = _greedy_vertex_cover(missing)
        object.__setattr__(self, "vocabulary", vocabulary)
        object.__setattr__(self, "facts", fact_map)
        object.__setattr__(self, "unknown", cover)
        object.__setattr__(
            self,
            "explicit",
            frozenset(
                ordered
                for name in cover
                for other in vocabulary.constants
                if other != name and other not in missing[name]
                for ordered in ((name, other), (other, name))
            ),
        )

    def __hash__(self) -> int:
        return hash((self.vocabulary, tuple(sorted(self.facts.items())), self.unknown, self.explicit))

    def fingerprint(self) -> str:
        """A stable hex digest of the database content.

        Two databases have the same fingerprint exactly when they have the
        same constants (in order), predicates, facts and uniqueness axioms —
        the digest covers the normalized ``U`` / ``NE'``, never the quadratic
        pair set.  Because instances are immutable the digest is computed
        once and cached; the service layer uses it as the database component
        of its cache keys.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            payload = json.dumps(
                {
                    "constants": list(self.constants),
                    "predicates": {name: arity for name, arity in sorted(self.predicates.items())},
                    "facts": {name: sorted(self.facts[name]) for name in sorted(self.facts)},
                    "unknown": sorted(self.unknown),
                    "explicit": self.explicit_pairs(),
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

    def explicit_pairs(self) -> list[tuple[str, str]]:
        """``NE'`` as sorted 2-tuples, one per axiom, in sorted order."""
        return sorted((left, right) for left, right in self.explicit if left < right)

    def uniqueness_axioms(self) -> list[UniquenessAxiom]:
        """Every uniqueness axiom, deterministically ordered (quadratic)."""
        return [UniquenessAxiom(left, right) for left, right in sorted(self.unequal_pairs())]

    def unequal_pairs(self) -> frozenset[tuple[str, str]]:
        """Every uniqueness axiom as a sorted 2-tuple (quadratic; derived on demand)."""
        missing = self.missing_uniqueness_pairs()
        constants = sorted(self.constants)
        return frozenset(
            (left, right)
            for index, left in enumerate(constants)
            for right in constants[index + 1:]
            if (left, right) not in missing
        )

    def uniqueness_axiom_count(self) -> int:
        """``|C|(|C|-1)/2`` minus the missing pairs, without building the pairs."""
        n = len(self.constants)
        return n * (n - 1) // 2 - len(self.missing_uniqueness_pairs())

    def are_known_distinct(self, left: str, right: str) -> bool:
        """True when the theory contains the axiom ``~(left = right)``.

        Read off the encoding: ``NE'(left, right)``, or two distinct
        constants outside ``U``.
        """
        if left == right:
            return False
        if left in self.unknown or right in self.unknown:
            return (left, right) in self.explicit
        return True

    # Structure ------------------------------------------------------------------

    @property
    def is_fully_specified(self) -> bool:
        """True when every pair of distinct constants has a uniqueness axiom.

        Fully specified databases represent no unknown values; by
        Corollary 2 their certain answers coincide with the answers of
        ``Ph1(LB)``.
        """
        return not self.unknown

    def unknown_constants(self) -> frozenset[str]:
        """The unknown values ``U`` of the encoding (Section 5, end).

        Every missing uniqueness pair has an endpoint here; one null that may
        equal every other constant contributes itself, not the whole constant
        set (on ``employee_database(300, seed=21)``: 15 of 378 constants).
        """
        return self.unknown

    def missing_uniqueness_pairs(self) -> frozenset[tuple[str, str]]:
        """Pairs of distinct constants with no uniqueness axiom, as sorted 2-tuples.

        ``O(|U|·|C|)`` from the encoding; cached on the instance (the
        ``_fingerprint`` immutability idiom).
        """
        cached = self.__dict__.get("_missing_uniqueness_pairs")
        if cached is None:
            cached = frozenset(
                (name, other) if name < other else (other, name)
                for name in self.unknown
                for other in self.constants
                if other != name and (name, other) not in self.explicit
            )
            object.__setattr__(self, "_missing_uniqueness_pairs", cached)
        return cached

    def size(self) -> int:
        """A simple size measure: number of facts plus uniqueness axioms plus constants."""
        n_facts = sum(len(rows) for rows in self.facts.values())
        return n_facts + self.uniqueness_axiom_count() + len(self.constants)

    # Theory -----------------------------------------------------------------------

    def theory(self) -> list[Formula]:
        """The full theory ``T`` (facts, uniqueness, domain closure, completion)."""
        return theory_formulas(self.constants, self.predicates, self.facts, self.unequal_pairs())

    # Functional updates -------------------------------------------------------------

    def _with(self, facts=None, unknown=None, explicit=None) -> "CWDatabase":
        return CWDatabase.from_unknowns(
            self.constants,
            self.predicates,
            self.facts if facts is None else facts,
            self.unknown if unknown is None else unknown,
            self.explicit if explicit is None else explicit,
        )

    def with_fact(self, predicate: str, row: Sequence[str]) -> "CWDatabase":
        """Return a copy with one more atomic fact."""
        facts = {name: set(rows) for name, rows in self.facts.items()}
        facts.setdefault(predicate, set()).add(tuple(row))
        return self._with(facts=facts)

    def with_unequal(self, left: str, right: str) -> "CWDatabase":
        """Return a copy with one more uniqueness axiom."""
        return self._with(explicit=self.explicit | {(left, right)})

    def fully_specified(self) -> "CWDatabase":
        """Return the fully specified version: a uniqueness axiom for every pair."""
        return self._with(unknown=(), explicit=())

    def without_uniqueness(self) -> "CWDatabase":
        """Return the copy with no uniqueness axioms at all (every identity unknown)."""
        return self._with(unknown=self.constants, explicit=())

    def describe(self) -> str:
        """Short human-readable summary used by examples and the harness."""
        n_facts = sum(len(rows) for rows in self.facts.values())
        status = "fully specified" if self.is_fully_specified else f"{len(self.unknown)} unknown constants"
        return (
            f"{len(self.constants)} constants, {n_facts} facts, "
            f"{self.uniqueness_axiom_count()} uniqueness axioms ({status})"
        )


def _greedy_vertex_cover(adjacency: Mapping[str, Iterable[str]]) -> frozenset[str]:
    """Greedy vertex cover of an undirected graph given as neighbour sets.

    Correctness of the encoding requires only that every pair of constants
    *not* declared unequal has a member in ``U`` (then the implicit "two
    known values are unequal" branch never fires wrongly): ``U`` must be a
    vertex cover of the missing pairs.  The paper's reading — "let ``U``
    contain all the unknown values" — is the typical case where the missing
    pairs all touch a handful of nulls; the greedy cover recovers exactly
    those there, whereas every endpoint of a missing pair would be the whole
    constant set as soon as one null exists.

    Repeatedly picks the vertex covering the most still-uncovered edges,
    ties to the smallest name; degrees are updated as edges are covered.
    The result is not minimum (that is NP-hard), but it depends on the
    graph alone, which is what makes the stored ``U`` canonical.
    """
    remaining = {vertex: set(neighbours) for vertex, neighbours in adjacency.items() if neighbours}
    cover = set()
    while remaining:
        best = min(remaining, key=lambda vertex: (-len(remaining[vertex]), vertex))
        cover.add(best)
        for neighbour in remaining.pop(best):
            edges = remaining[neighbour]
            edges.discard(best)
            if not edges:
                del remaining[neighbour]
    return frozenset(cover)
