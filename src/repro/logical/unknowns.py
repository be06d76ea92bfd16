"""Compact representation of the inequality relation ``NE`` (Section 5, end).

Materializing ``NE`` explicitly needs up to ``|C|^2`` pairs, which the paper
points out is impractical: "in practice most values in the database are
known values".  The recommended encoding keeps

* ``U`` — the unary relation of *unknown* values (constants whose identity
  is not fully pinned down by uniqueness axioms), and
* ``NE'`` — the inequalities explicitly known about values in ``U``,

and treats ``NE`` as the virtual relation

    NE(x, y)  ≡  NE'(x, y)  ∨  (¬U(x) ∧ ¬U(y) ∧ ¬(x = y)).

For a fully specified database ``U`` and ``NE'`` are empty and ``NE`` is just
inequality.  :class:`VirtualNERelation` exposes this virtual relation through
the ordinary relation interface (membership, iteration, length) so the rest
of the library — the Tarskian evaluator, the algebra engine, the
approximation algorithm — can use it as a drop-in replacement for the
materialized relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, TYPE_CHECKING

from repro.logic.vocabulary import NE_PREDICATE

if TYPE_CHECKING:  # pragma: no cover
    from repro.logical.database import CWDatabase

__all__ = ["CompactNEEncoding", "VirtualNERelation", "compact_ne_encoding"]


@dataclass(frozen=True)
class CompactNEEncoding:
    """The ``U`` / ``NE'`` encoding of the inequality relation.

    Attributes
    ----------
    constants:
        All constant symbols (the domain of the relation).
    unknown:
        The unary relation ``U`` of unknown values.
    explicit:
        The binary relation ``NE'``: explicitly known inequalities that
        involve at least one unknown value, stored as ordered pairs in both
        orientations.
    """

    constants: tuple[str, ...]
    unknown: frozenset[str]
    explicit: frozenset[tuple[str, str]]

    @property
    def stored_size(self) -> int:
        """Number of stored entries: ``|U| + |NE'|`` (what a DBMS would keep)."""
        return len(self.unknown) + len(self.explicit)

    @property
    def materialized_size(self) -> int:
        """Number of pairs an explicit ``NE`` relation would store."""
        return sum(1 for __ in self.pairs())

    def holds(self, left: str, right: str) -> bool:
        """Membership test for the virtual ``NE`` relation."""
        if left == right:
            return False
        if (left, right) in self.explicit:
            return True
        return left not in self.unknown and right not in self.unknown

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Iterate over the pairs of the virtual relation (both orientations)."""
        known = [name for name in self.constants if name not in self.unknown]
        for index, left in enumerate(known):
            for right in known[index + 1:]:
                yield (left, right)
                yield (right, left)
        for pair in sorted(self.explicit):
            yield pair


def compact_ne_encoding(database: "CWDatabase") -> CompactNEEncoding:
    """Build the compact encoding from a CW logical database.

    Correctness requires only that every pair of constants *not* declared
    unequal has at least one member in ``U`` (then the implicit
    "two known values are unequal" branch can never fire wrongly).  In other
    words ``U`` must be a vertex cover of the graph of *missing* uniqueness
    pairs.  The paper's intended reading — "let ``U`` contain all the unknown
    values" — corresponds to the typical case where the missing pairs all
    touch a handful of null constants; a greedy vertex cover recovers exactly
    that set there, and stays small in general, whereas taking every endpoint
    of a missing pair would balloon to the whole constant set as soon as one
    null exists.

    ``NE'`` then stores the declared inequalities with at least one endpoint
    in ``U``; inequalities between two known values are implied.
    """
    unknown = _greedy_vertex_cover(database.missing_uniqueness_pairs())
    explicit = set()
    for pair in database.unequal:
        left, right = sorted(pair)
        if left in unknown or right in unknown:
            explicit.add((left, right))
            explicit.add((right, left))
    return CompactNEEncoding(
        constants=database.constants,
        unknown=frozenset(unknown),
        explicit=frozenset(explicit),
    )


def _greedy_vertex_cover(pairs: frozenset[tuple[str, str]]) -> set[str]:
    """Greedy vertex cover of an undirected graph given as a set of edges.

    Repeatedly picks the vertex covering the most still-uncovered edges.
    The result is not minimum (that is NP-hard) and carries no constant-factor
    guarantee, but the encoding needs none: any vertex cover of the missing
    pairs is sound for it.
    """
    remaining = {frozenset(pair) for pair in pairs}
    cover: set[str] = set()
    while remaining:
        degree: dict[str, int] = {}
        for edge in remaining:
            for vertex in edge:
                degree[vertex] = degree.get(vertex, 0) + 1
        best = max(sorted(degree), key=lambda vertex: degree[vertex])
        cover.add(best)
        remaining = {edge for edge in remaining if best not in edge}
    return cover


class VirtualNERelation:
    """A relation-like view of the virtual ``NE`` relation.

    Satisfies the :class:`~repro.physical.relation.RelationLike` protocol:
    membership is answered from the compact encoding without materializing
    the quadratic set of pairs; iteration and length enumerate the pairs
    lazily (only tests and the algebra engine's scans do that).
    """

    def __init__(self, encoding: CompactNEEncoding) -> None:
        self.encoding = encoding
        self.name = NE_PREDICATE
        self.arity = 2

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, tuple) or len(item) != 2:
            return False
        left, right = item
        return self.encoding.holds(left, right)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return self.encoding.pairs()

    def __len__(self) -> int:
        return self.encoding.materialized_size

    @property
    def stored_size(self) -> int:
        """Entries actually stored (``|U| + |NE'|``), the paper's saving."""
        return self.encoding.stored_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualNERelation(stored={self.encoding.stored_size}, "
            f"materialized={self.encoding.materialized_size})"
        )
