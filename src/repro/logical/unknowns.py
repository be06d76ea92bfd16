"""The ``U`` / ``NE'`` encoding of the inequality relation (Section 5, end).

Materializing ``NE`` explicitly needs up to ``|C|^2`` pairs, which the paper
points out is impractical: "in practice most values in the database are
known values".  The recommended encoding keeps

* ``U`` — the unary relation of *unknown* values (constants whose identity
  is not fully pinned down by uniqueness axioms), and
* ``NE'`` — the inequalities explicitly known about values in ``U``,

and treats ``NE`` as the virtual relation

    NE(x, y)  ≡  NE'(x, y)  ∨  (¬U(x) ∧ ¬U(y) ∧ ¬(x = y)).

:class:`~repro.logical.database.CWDatabase` stores its uniqueness axioms in
exactly this form, and :class:`VirtualNERelation` is the ``NE`` relation of
``Ph2(LB)`` over it: membership, length and value sets answered from the
encoding, with no quadratic set of pairs anywhere.
"""

from __future__ import annotations

from typing import Iterator, TYPE_CHECKING

from repro.logic.vocabulary import NE_PREDICATE

if TYPE_CHECKING:  # pragma: no cover
    from repro.logical.database import CWDatabase

__all__ = ["VirtualNERelation"]


class VirtualNERelation:
    """The ``NE`` relation of ``Ph2(LB)``, read off the database's encoding.

    Satisfies the :class:`~repro.physical.relation.RelationLike` protocol.
    Membership, ``len`` (``|K|·(|K|-1)`` ordered pairs of known values
    ``K = C - U``, plus ``NE'``) and :meth:`values` never enumerate pairs;
    only iteration does, and no serving path iterates it: compiled plans
    read ``NE`` through its complement ``PE``.
    """

    def __init__(self, database: "CWDatabase") -> None:
        self.database = database
        self.name = NE_PREDICATE
        self.arity = 2

    @property
    def unknown(self) -> frozenset[str]:
        """``U``: outside it, every pair of distinct values is in ``NE``."""
        return self.database.unknown

    @property
    def explicit(self) -> frozenset[tuple[str, str]]:
        """``NE'``: the pairs touching ``U`` that are in ``NE``, both orientations."""
        return self.database.explicit

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, tuple) or len(item) != 2:
            return False
        return self.database.are_known_distinct(*item)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        known = self._known()
        for index, left in enumerate(known):
            for right in known[index + 1:]:
                yield (left, right)
                yield (right, left)
        yield from sorted(self.database.explicit)

    def __len__(self) -> int:
        known = len(self.database.constants) - len(self.database.unknown)
        return known * (known - 1) + len(self.database.explicit)

    def values(self) -> frozenset[str]:
        """Every value in some ``NE`` pair."""
        known = self._known()
        values = {value for pair in self.database.explicit for value in pair}
        if len(known) > 1:
            values.update(known)
        return frozenset(values)

    @property
    def stored_size(self) -> int:
        """Entries actually stored (``|U| + |NE'|``), the paper's saving."""
        return len(self.database.unknown) + len(self.database.explicit)

    def _known(self) -> list[str]:
        unknown = self.database.unknown
        return [name for name in self.database.constants if name not in unknown]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualNERelation(stored={self.stored_size}, pairs={len(self)})"
