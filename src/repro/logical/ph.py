"""The physical databases ``Ph1(LB)`` and ``Ph2(LB)`` (Sections 3.1, 3.2, 5).

* ``Ph1(LB)`` interprets the vocabulary ``L`` over the domain ``C`` of
  constant symbols: every constant denotes itself, and each predicate holds
  exactly the stored facts.  It is the "minimal" model of the theory and the
  anchor of the combinatorial characterization (Theorem 1).
* ``Ph2(LB)`` is ``Ph1(LB)`` over the extended vocabulary ``L'`` which adds
  the binary predicate ``NE`` holding exactly the pairs with a uniqueness
  axiom.  It is the stored representation used by both the precise
  (second-order) simulation of Theorem 3 and the approximation algorithm of
  Section 5.

``NE`` is never materialized: it is the
:class:`~repro.logical.unknowns.VirtualNERelation` over the database's own
``U``/``NE'`` encoding, as the paper recommends at the end of Section 5.
"""

from __future__ import annotations

from repro.logic.vocabulary import NE_PREDICATE
from repro.physical.database import PhysicalDatabase
from repro.logical.database import CWDatabase
from repro.logical.unknowns import VirtualNERelation

__all__ = ["ph1", "ph2", "NE_PREDICATE"]


def ph1(database: CWDatabase) -> PhysicalDatabase:
    """Construct ``Ph1(LB)``: domain ``C``, identity constants, stored facts."""
    constants = database.constants
    return PhysicalDatabase(
        vocabulary=database.vocabulary,
        domain=constants,
        constants={name: name for name in constants},
        relations={predicate: rows for predicate, rows in database.facts.items()},
    )


def ph2(database: CWDatabase) -> PhysicalDatabase:
    """Construct ``Ph2(LB)``: ``Ph1(LB)`` plus the inequality relation ``NE``."""
    constants = database.constants
    relations: dict[str, object] = {predicate: rows for predicate, rows in database.facts.items()}
    relations[NE_PREDICATE] = VirtualNERelation(database)
    return PhysicalDatabase(
        vocabulary=database.vocabulary.with_ne(),
        domain=constants,
        constants={name: name for name in constants},
        relations=relations,
    )
