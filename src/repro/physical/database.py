"""Physical databases: finite interpretations of a relational vocabulary.

Section 2.1 of the paper: a physical database ``(L, I)`` consists of a
nonempty finite domain ``D``, an assignment of an element of ``D`` to each
constant symbol, and a relation of the appropriate arity over ``D`` for each
predicate symbol; equality is always interpreted as true equality.

:class:`PhysicalDatabase` is immutable; the ``with_*`` methods produce
modified copies.  Relations may be ordinary :class:`~repro.physical.relation.Relation`
objects or lazy relation-like objects (used for the virtual ``NE`` relation
of Section 5).

**Immutability contract.**  Instances never change after construction —
updates return fresh copies — so :meth:`PhysicalDatabase.fingerprint` is a
stable identifier of the interpretation's content.  The serving layer relies
on this to share one ``Ph2(LB)`` across concurrent queries without locking.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import DatabaseError, VocabularyError
from repro.logic.vocabulary import NE_PREDICATE, PE_PREDICATE, Vocabulary
from repro.physical.relation import Relation, RelationLike

__all__ = ["PhysicalDatabase"]


@dataclass(frozen=True)
class PhysicalDatabase:
    """A finite interpretation ``(L, I)`` of a relational vocabulary.

    Parameters
    ----------
    vocabulary:
        The relational vocabulary ``L``.
    domain:
        The finite, nonempty domain ``D``.  Elements may be any hashable
        Python values; in databases derived from logical databases they are
        constant-symbol names (strings).
    constants:
        Assignment of a domain element to every constant symbol of ``L``.
    relations:
        For each predicate symbol of ``L``, a relation over ``D`` of the
        declared arity.  Predicates missing from the mapping are interpreted
        as empty relations.
    """

    vocabulary: Vocabulary
    domain: frozenset
    constants: Mapping[str, object]
    relations: Mapping[str, RelationLike]

    def __init__(
        self,
        vocabulary: Vocabulary,
        domain: Iterable,
        constants: Mapping[str, object],
        relations: Mapping[str, RelationLike] | Mapping[str, Iterable[tuple]] | None = None,
    ) -> None:
        domain_set = frozenset(domain)
        if not domain_set:
            raise DatabaseError("the domain of a physical database must be nonempty")
        constant_map = dict(constants)
        for symbol in vocabulary.constants:
            if symbol not in constant_map:
                raise DatabaseError(f"no interpretation given for constant symbol {symbol!r}")
            if constant_map[symbol] not in domain_set:
                raise DatabaseError(
                    f"constant {symbol!r} is interpreted as {constant_map[symbol]!r}, which is outside the domain"
                )
        unknown_constants = set(constant_map) - set(vocabulary.constants)
        if unknown_constants:
            raise VocabularyError(f"interpretation given for undeclared constants: {sorted(unknown_constants)}")

        relation_map: dict[str, RelationLike] = {}
        provided = dict(relations or {})
        unknown_predicates = set(provided) - set(vocabulary.predicates)
        if unknown_predicates:
            raise VocabularyError(f"relations given for undeclared predicates: {sorted(unknown_predicates)}")
        for predicate, arity in vocabulary.predicates.items():
            value = provided.get(predicate)
            if value is None:
                relation_map[predicate] = Relation(predicate, arity, ())
            elif isinstance(value, Relation):
                relation_map[predicate] = self._check_relation(value, predicate, arity, domain_set)
            elif isinstance(value, RelationLike) and not isinstance(value, (set, frozenset, list, tuple)):
                # Lazy relation: trust its declared arity, skip materialization.
                if value.arity != arity:
                    raise DatabaseError(
                        f"relation for {predicate!r} has arity {value.arity}, vocabulary declares {arity}"
                    )
                relation_map[predicate] = value
            else:
                relation_map[predicate] = self._check_relation(
                    Relation(predicate, arity, value), predicate, arity, domain_set
                )

        object.__setattr__(self, "vocabulary", vocabulary)
        object.__setattr__(self, "domain", domain_set)
        object.__setattr__(self, "constants", constant_map)
        object.__setattr__(self, "relations", relation_map)

    @staticmethod
    def _check_relation(relation: Relation, predicate: str, arity: int, domain: frozenset) -> Relation:
        if relation.arity != arity:
            raise DatabaseError(
                f"relation for {predicate!r} has arity {relation.arity}, vocabulary declares {arity}"
            )
        outside = relation.values() - domain
        if outside:
            raise DatabaseError(
                f"relation {predicate!r} mentions values outside the domain: {sorted(map(repr, outside))}"
            )
        if relation.name != predicate:
            relation = relation.renamed(predicate)
        return relation

    def __hash__(self) -> int:
        frozen_relations = tuple(
            sorted((name, frozenset(rel) if not isinstance(rel, Relation) else rel.tuples)
                   for name, rel in self.relations.items())
        )
        return hash((self.vocabulary, self.domain, tuple(sorted(self.constants.items(), key=repr)), frozen_relations))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhysicalDatabase):
            return NotImplemented
        if self.vocabulary != other.vocabulary or self.domain != other.domain:
            return False
        if self.constants != other.constants:
            return False
        if set(self.relations) != set(other.relations):
            return False
        for name, relation in self.relations.items():
            if frozenset(relation) != frozenset(other.relations[name]):
                return False
        return True

    def fingerprint(self) -> str:
        """A stable hex digest of the interpretation's content.

        Domain elements enter the digest via ``repr``, so equal databases
        (same vocabulary, domain, constant assignment and relation contents
        — lazy relations are materialized) share a fingerprint whenever
        their values have content-based reprs.  That covers the string
        domains of ``Ph1``/``Ph2`` and anything loaded from CSV — the cases
        the serving layer keys on; values with identity-based reprs (plain
        ``object()``) would not fingerprint stably.  Computed once and
        cached, which is sound because instances are immutable.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            payload = json.dumps(
                {
                    "constants": sorted((symbol, repr(value)) for symbol, value in self.constants.items()),
                    "predicates": {name: arity for name, arity in sorted(self.vocabulary.predicates.items())},
                    "domain": sorted(repr(value) for value in self.domain),
                    "relations": {
                        name: sorted(repr(row) for row in relation)
                        for name, relation in sorted(self.relations.items())
                    },
                },
                separators=(",", ":"),
            )
            cached = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # Lookups -----------------------------------------------------------------

    def constant_value(self, symbol: str) -> object:
        """Return the domain element assigned to a constant symbol."""
        try:
            return self.constants[symbol]
        except KeyError:
            raise DatabaseError(f"unknown constant symbol {symbol!r}") from None

    def relation(self, predicate: str) -> RelationLike:
        """Return the relation assigned to a predicate symbol.

        The reserved name :data:`~repro.logic.vocabulary.PE_PREDICATE` answers
        with the derived :meth:`possibly_equal` relation, which is how plan
        scans, hash indexes and statistics reach it without it being stored.
        """
        try:
            return self.relations[predicate]
        except KeyError:
            if predicate == PE_PREDICATE:
                return self.possibly_equal()
            raise DatabaseError(f"unknown predicate {predicate!r}") from None

    def has_relation(self, predicate: str) -> bool:
        return predicate in self.relations

    def active_domain(self) -> frozenset:
        """Values mentioned by some relation tuple or assigned to a constant.

        Computed once and cached on the instance — the same immutability
        contract as :meth:`fingerprint`.  The algebra engine consults the
        active domain on every ``ActiveDomain`` plan node and every compile,
        so recomputing it (which iterates every stored tuple, including lazy
        relations) used to dominate small-query latency.
        """
        cached = self.__dict__.get("_active_domain")
        if cached is None:
            values = set(self.constants.values())
            for relation in self.relations.values():
                if isinstance(relation, Relation):
                    values |= relation.values()
                else:
                    for row in relation:
                        values |= set(row)
            cached = frozenset(values)
            object.__setattr__(self, "_active_domain", cached)
        return cached

    def possibly_equal(self) -> Relation:
        """``PE``: the pairs of active-domain values not known to be unequal.

        The complement of ``NE`` (read in both orientations, like Lemma 10's
        disagreement test) over the active domain, reflexive pairs included:
        ``PE(a, b)`` iff the theory does not force ``a != b``.  Compiled
        ``alpha_P`` plans join against it under the reserved name
        :data:`~repro.logic.vocabulary.PE_PREDICATE`.  It is derived, not
        stored: absent from :attr:`vocabulary`, :attr:`relations`,
        :meth:`fingerprint` and :meth:`total_tuples`, built on first use from
        membership probes only (so a virtual ``NE`` is never enumerated) and
        cached on the instance.  Unlike the other instance caches the build
        takes a lock: it costs a pass over the squared active domain, and
        the serving layer's threads share one instance.
        """
        cached = self.__dict__.get("_possibly_equal")
        if cached is None:
            with self.__dict__.setdefault("_possibly_equal_lock", threading.Lock()):
                cached = self.__dict__.get("_possibly_equal")
                if cached is None:
                    unequal = self.relations.get(NE_PREDICATE, ())
                    values = sorted(self.active_domain(), key=repr)
                    pairs = [(value, value) for value in values]
                    for index, left in enumerate(values):
                        for right in values[index + 1 :]:
                            if (left, right) not in unequal and (right, left) not in unequal:
                                pairs.append((left, right))
                                pairs.append((right, left))
                    cached = Relation(PE_PREDICATE, 2, pairs)
                    object.__setattr__(self, "_possibly_equal", cached)
        return cached

    def total_tuples(self) -> int:
        """Number of stored tuples across all relations (a size measure)."""
        return sum(len(relation) for relation in self.relations.values())

    # Functional updates -------------------------------------------------------

    def with_relation(self, predicate: str, tuples: Iterable[tuple] | RelationLike) -> "PhysicalDatabase":
        """Return a copy in which *predicate* is interpreted by *tuples*.

        The predicate must already be declared; use :meth:`with_new_predicate`
        to extend the vocabulary at the same time.
        """
        if predicate not in self.vocabulary.predicates:
            raise VocabularyError(f"predicate {predicate!r} is not declared in the vocabulary")
        relations = dict(self.relations)
        relations[predicate] = tuples
        return PhysicalDatabase(self.vocabulary, self.domain, self.constants, relations)

    def with_new_predicate(self, predicate: str, arity: int, tuples: Iterable[tuple] = ()) -> "PhysicalDatabase":
        """Return a copy whose vocabulary and interpretation include a new predicate."""
        vocabulary = self.vocabulary.with_predicates({predicate: arity})
        relations = dict(self.relations)
        relations[predicate] = Relation(predicate, arity, tuples)
        return PhysicalDatabase(vocabulary, self.domain, self.constants, relations)

    def restricted_to(self, vocabulary: Vocabulary) -> "PhysicalDatabase":
        """Return the reduct of the database to a sub-vocabulary.

        This is the operation written ``PB|_{L'}`` in the proof of Theorem 3.
        Every constant and predicate of *vocabulary* must already be
        interpreted here.
        """
        for symbol in vocabulary.constants:
            if symbol not in self.constants:
                raise VocabularyError(f"cannot restrict: constant {symbol!r} is not interpreted")
        relations = {}
        for predicate, arity in vocabulary.predicates.items():
            if predicate not in self.relations:
                raise VocabularyError(f"cannot restrict: predicate {predicate!r} is not interpreted")
            if self.vocabulary.arity(predicate) != arity:
                raise VocabularyError(f"cannot restrict: predicate {predicate!r} has a different arity")
            relations[predicate] = self.relations[predicate]
        constants = {symbol: self.constants[symbol] for symbol in vocabulary.constants}
        return PhysicalDatabase(vocabulary, self.domain, constants, relations)

    def map_domain(self, mapping: Mapping) -> "PhysicalDatabase":
        """Apply an element mapping ``h`` to the whole database.

        Returns ``h(PB)``: the domain becomes ``h(D)``, every constant ``c``
        is reinterpreted as ``h(I(c))`` and every relation becomes its image
        under ``h`` (Section 3.1).
        """
        new_domain = frozenset(mapping[value] for value in self.domain)
        new_constants = {symbol: mapping[value] for symbol, value in self.constants.items()}
        new_relations = {}
        for predicate, relation in self.relations.items():
            if isinstance(relation, Relation):
                new_relations[predicate] = relation.map_values(mapping)
            else:
                arity = self.vocabulary.arity(predicate)
                new_relations[predicate] = Relation(
                    predicate, arity, {tuple(mapping[v] for v in row) for row in relation}
                )
        return PhysicalDatabase(self.vocabulary, new_domain, new_constants, new_relations)

    def describe(self) -> str:
        """Short human-readable summary used by examples and the harness."""
        parts = [f"domain size {len(self.domain)}", f"{len(self.constants)} constants"]
        for name in sorted(self.relations):
            parts.append(f"{name}: {len(self.relations[name])} tuples")
        return ", ".join(parts)
