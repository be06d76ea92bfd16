"""Stored relations.

A relation is a named, fixed-arity set of tuples over a domain.  Two
implementations share the :class:`RelationLike` interface:

* :class:`Relation` — an ordinary materialized set of tuples;
* lazy relations (see :class:`repro.logical.unknowns.VirtualNERelation`) that
  compute membership, length and values on demand.  The paper's Section 5
  closes by observing that the inequality relation ``NE`` should be
  *virtual* because its materialized size is quadratic in the number of
  constants; the lazy interface is what makes that observation
  implementable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.errors import DatabaseError

__all__ = ["Relation", "RelationLike", "tuples_of"]


@runtime_checkable
class RelationLike(Protocol):
    """Minimal protocol all relation implementations satisfy."""

    name: str
    arity: int

    def __contains__(self, item: object) -> bool: ...

    def __iter__(self) -> Iterator[tuple]: ...

    def __len__(self) -> int: ...

    def values(self) -> frozenset: ...


@dataclass(frozen=True)
class Relation:
    """A materialized relation: a named finite set of same-arity tuples."""

    name: str
    arity: int
    tuples: frozenset[tuple]

    def __init__(self, name: str, arity: int, tuples: Iterable[tuple] = ()) -> None:
        if not name or not isinstance(name, str):
            raise DatabaseError(f"relation name must be a non-empty string, got {name!r}")
        if not isinstance(arity, int) or arity < 1:
            raise DatabaseError(f"relation arity must be a positive integer, got {arity!r}")
        frozen = frozenset(tuple(row) for row in tuples)
        for row in frozen:
            if len(row) != arity:
                raise DatabaseError(
                    f"relation {name!r} has arity {arity} but contains a tuple of length {len(row)}: {row!r}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "tuples", frozen)

    def __contains__(self, item: object) -> bool:
        return item in self.tuples

    def __iter__(self) -> Iterator[tuple]:
        return iter(sorted(self.tuples, key=repr))

    def __len__(self) -> int:
        return len(self.tuples)

    def values(self) -> frozenset:
        """Return every domain element mentioned by some tuple."""
        return frozenset(value for row in self.tuples for value in row)

    def column_values(self, position: int) -> frozenset:
        """Distinct values appearing in one column position.

        Computed once per position and cached on the instance (sound because
        relations are immutable); the evaluator's bounded quantifier
        enumeration and the optimizer's statistics both probe these sets
        repeatedly.
        """
        if not 0 <= position < self.arity:
            raise DatabaseError(
                f"column {position} out of range for relation {self.name!r} (arity {self.arity})"
            )
        cached = self.__dict__.get("_column_values")
        if cached is None:
            columns = [set() for __ in range(self.arity)]
            for row in self.tuples:
                for index, value in enumerate(row):
                    columns[index].add(value)
            cached = tuple(frozenset(column) for column in columns)
            object.__setattr__(self, "_column_values", cached)
        return cached[position]

    # Functional updates -----------------------------------------------------

    def add(self, row: tuple) -> "Relation":
        """Return a copy with *row* added."""
        return Relation(self.name, self.arity, self.tuples | {tuple(row)})

    def remove(self, row: tuple) -> "Relation":
        """Return a copy with *row* removed (no error if absent)."""
        return Relation(self.name, self.arity, self.tuples - {tuple(row)})

    def map_values(self, mapping) -> "Relation":
        """Return the image of the relation under an element mapping.

        This is the operation ``h(I(P))`` used throughout Section 3: every
        tuple has the mapping applied componentwise.  ``mapping`` may be a
        dict or any callable.
        """
        apply = mapping.__getitem__ if hasattr(mapping, "__getitem__") else mapping
        return Relation(self.name, self.arity, {tuple(apply(value) for value in row) for row in self.tuples})

    def renamed(self, name: str) -> "Relation":
        """Return the same relation under a different name."""
        return Relation(name, self.arity, self.tuples)


def tuples_of(relation: RelationLike) -> frozenset[tuple]:
    """Materialize the tuples of any relation-like object."""
    if isinstance(relation, Relation):
        return relation.tuples
    return frozenset(relation)
