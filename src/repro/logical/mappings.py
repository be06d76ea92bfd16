"""Constant mappings ``h : C -> C`` and their enumeration (Section 3.1).

Theorem 1 characterizes the certain answers of a CW logical database in
terms of *all* mappings ``h : C -> C`` that respect the theory ``T`` — i.e.
that never identify two constants declared distinct by a uniqueness axiom.
This module provides:

* :func:`respects` — the respect test;
* :func:`apply_to_ph1` — the image database ``h(Ph1(LB))``;
* :func:`enumerate_respecting_mappings` — the naive enumeration of all
  ``|C|^|C|`` candidate functions, filtered by the respect test (kept as the
  literal reading of Theorem 1 and as the baseline of ablation E11);
* :func:`enumerate_canonical_mappings` — the optimized enumeration.

The optimization rests on an isomorphism argument: first- and second-order
satisfaction is invariant under isomorphism, and if two respecting mappings
``h`` and ``h'`` have the same *kernel* (they identify the same constants)
then the map ``h(c) -> h'(c)`` is an isomorphism from ``h(Ph1(LB))`` to
``h'(Ph1(LB))`` carrying ``h(c)`` to ``h'(c)`` for every tuple ``c`` of
constants.  Hence, for deciding ``h(c) ∈ Q(h(Ph1(LB)))`` for all respecting
``h``, it suffices to consider one representative mapping per kernel.  The
kernels of respecting mappings are exactly the partitions of ``C`` in which
no block contains two constants declared unequal, so the canonical
enumeration walks set partitions (Bell-number many) instead of all functions
(``|C|^|C|`` many).  Tests verify that both enumerations produce the same
certain answers; benchmark E11 measures the speedup.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping

from repro.errors import CapacityError
from repro.logical.database import CWDatabase
from repro.logical.ph import ph1
from repro.physical.database import PhysicalDatabase

__all__ = [
    "respects",
    "apply_mapping",
    "apply_to_ph1",
    "enumerate_respecting_mappings",
    "enumerate_canonical_mappings",
    "count_all_mappings",
    "count_respecting_mappings",
    "count_canonical_mappings",
    "DEFAULT_MAX_MAPPINGS",
]

#: Safety cap on how many candidate mappings an enumeration may visit.
DEFAULT_MAX_MAPPINGS = 2_000_000


def respects(mapping: Mapping[str, str], database: CWDatabase) -> bool:
    """True when *mapping* never identifies two constants declared distinct.

    This is the paper's "h respects T": whenever ``~(c_i = c_j)`` is in the
    theory, ``h(c_i) != h(c_j)``.
    """
    blocks: dict[str, list[str]] = {}
    for constant in database.constants:
        block = blocks.setdefault(mapping[constant], [])
        if any(database.are_known_distinct(constant, member) for member in block):
            return False
        block.append(constant)
    return True


def apply_mapping(mapping: Mapping[str, str], database: PhysicalDatabase) -> PhysicalDatabase:
    """Return the image database ``h(PB)`` (domain, constants and relations mapped)."""
    return database.map_domain(mapping)


def apply_to_ph1(mapping: Mapping[str, str], database: CWDatabase) -> PhysicalDatabase:
    """Return ``h(Ph1(LB))`` for a CW logical database."""
    return apply_mapping(mapping, ph1(database))


def count_all_mappings(database: CWDatabase) -> int:
    """``|C| ** |C|`` — the number of candidate functions Theorem 1 quantifies over."""
    n = len(database.constants)
    return n**n


def enumerate_respecting_mappings(
    database: CWDatabase, max_mappings: int = DEFAULT_MAX_MAPPINGS
) -> Iterator[dict[str, str]]:
    """Yield every mapping ``h : C -> C`` that respects the theory.

    This is the literal quantification of Theorem 1.  The number of candidate
    functions is ``|C|^|C|``; the enumeration refuses to start when that
    exceeds *max_mappings* and raises :class:`CapacityError` instead.
    """
    constants = database.constants
    total = count_all_mappings(database)
    if total > max_mappings:
        raise CapacityError(
            f"enumerating all {total} functions over {len(constants)} constants exceeds the cap "
            f"of {max_mappings}; use enumerate_canonical_mappings or raise max_mappings"
        )
    for values in product(constants, repeat=len(constants)):
        mapping = dict(zip(constants, values))
        if respects(mapping, database):
            yield mapping


def enumerate_canonical_mappings(
    database: CWDatabase, max_mappings: int = DEFAULT_MAX_MAPPINGS
) -> Iterator[dict[str, str]]:
    """Yield one respecting mapping per kernel (one per admissible partition).

    Each partition of the constants whose blocks contain no pair declared
    unequal yields the mapping sending every constant to the first-declared
    constant of its block.  By the isomorphism argument in the module
    docstring, restricting Theorem 1's quantification to these canonical
    mappings does not change the certain answers.
    """
    constants = database.constants
    emitted = 0
    for partition in _admissible_partitions(database):
        representative: dict[str, str] = {}
        for block in partition:
            head = block[0]
            for member in block:
                representative[member] = head
        emitted += 1
        if emitted > max_mappings:
            raise CapacityError(
                f"more than {max_mappings} admissible partitions for {len(constants)} constants"
            )
        yield representative


def _admissible_partitions(database: CWDatabase) -> Iterator[list[list[str]]]:
    """Enumerate partitions of the constants with no unequal pair inside a block.

    Standard restricted-growth enumeration: constants are processed in
    declaration order and each either joins an existing compatible block or
    opens a new one.  Compatibility is checked incrementally, so subtrees
    that would violate a uniqueness axiom are pruned immediately.
    """
    constants = database.constants

    def extend(index: int, blocks: list[list[str]]) -> Iterator[list[list[str]]]:
        if index == len(constants):
            yield [list(block) for block in blocks]
            return
        constant = constants[index]
        for block in blocks:
            if all(not database.are_known_distinct(constant, member) for member in block):
                block.append(constant)
                yield from extend(index + 1, blocks)
                block.pop()
        blocks.append([constant])
        yield from extend(index + 1, blocks)
        blocks.pop()

    if not constants:
        yield []
        return
    yield from extend(0, [])


def count_respecting_mappings(database: CWDatabase, max_mappings: int = DEFAULT_MAX_MAPPINGS) -> int:
    """Number of respecting mappings (exhaustive count, capped)."""
    return sum(1 for __ in enumerate_respecting_mappings(database, max_mappings))


def count_canonical_mappings(database: CWDatabase, max_mappings: int = DEFAULT_MAX_MAPPINGS) -> int:
    """Number of admissible partitions (canonical mappings), capped."""
    return sum(1 for __ in enumerate_canonical_mappings(database, max_mappings))


def mappings(
    database: CWDatabase,
    strategy: str = "canonical",
    max_mappings: int = DEFAULT_MAX_MAPPINGS,
) -> Iterable[dict[str, str]]:
    """Dispatch between the two enumeration strategies by name.

    ``strategy`` is ``"canonical"`` (default, partition-based) or ``"all"``
    (every respecting function, the literal Theorem 1 quantification).
    """
    if strategy == "canonical":
        return enumerate_canonical_mappings(database, max_mappings)
    if strategy == "all":
        return enumerate_respecting_mappings(database, max_mappings)
    raise ValueError(f"unknown mapping enumeration strategy {strategy!r}; use 'canonical' or 'all'")
