"""Deterministic partitioning of CW logical databases, and query decomposition.

**Why partitioning a logical database is delicate.**  A closed-world logical
database (Section 2.2) is a *theory*, not a bag of tuples: the completion
axioms say "these are all the facts there are", and certain answers quantify
over every model of that theory.  Naively splitting the facts across shards
changes the theory each shard believes — a shard missing half of ``P`` would
happily certify ``~P(c)`` — so soundness across process boundaries has to be
argued, not assumed.  Two observations make it work:

* **Constants and uniqueness axioms are global.**  Every shard keeps the
  full constant set ``C`` and the full set of uniqueness axioms.  The domain
  closure axiom then pins every shard's models to the same domains as the
  whole database's, and ``Ph2``'s domain (= ``C``) is identical everywhere.

* **Certain answers are local to the mentioned relations.**  For a query
  ``Q`` mentioning only predicates whose facts a shard holds *in full*, the
  certain answers over the shard equal those over the whole database: any
  model of the shard theory extends to a model of the full theory by
  interpreting the remaining predicates by their own completions, and the
  restriction preserves the truth of ``Q``.  The approximation inherits this
  because ``Ph2`` evaluation only reads the mentioned relations, ``NE`` and
  the (identical) domain.

The partitioner therefore replicates *small* relations to every shard (they
make whole queries shard-local) and hash-splits *large* relations by tuple
(they scatter).  :func:`decompose_query` is the proof-carrying side: it
returns a routing plan only for the query shapes whose shard answers merge
into exactly the single-process answer —

* all predicates replicated → route the whole query to any one shard;
* a bare positive atom over a split relation → scatter to every shard and
  take the **union** (the certain answers of a positive atom are exactly the
  stored matching facts, and those are partitioned);
* a Boolean conjunction whose conjuncts each decompose → evaluate the
  conjuncts independently and take the **conjunction** (certainty always
  distributes over ``&``: every model satisfies ``A & B`` iff every model
  satisfies ``A`` and every model satisfies ``B``);
* anything else → fall back to a designated full-copy replica, so answers
  stay byte-identical by construction.

Everything here is deterministic and fingerprint-stable: the same database
content always produces the same shards with the same fingerprints,
regardless of fact insertion order or process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ClusterError
from repro.logic.analysis import predicates_in
from repro.logic.formulas import And, Atom
from repro.logic.printer import query_to_text
from repro.logic.queries import Query, boolean_query
from repro.logical.database import CWDatabase

__all__ = [
    "RELATION_REPLICATION_THRESHOLD",
    "PartitionScheme",
    "PartitionLayout",
    "partition_database",
    "shard_of",
    "RoutePlan",
    "SingleShard",
    "ScatterUnion",
    "BooleanConjunction",
    "FullCopy",
    "decompose_query",
]

#: Relations with at most this many facts are replicated to every shard
#: rather than split; replicated relations keep joins shard-local.
RELATION_REPLICATION_THRESHOLD = 64

_HASH_SEPARATOR = b"\x1f"


def _stable_hash(*parts: str) -> int:
    """A process-independent 64-bit hash (``hash()`` is randomized per run)."""
    digest = hashlib.blake2b(
        _HASH_SEPARATOR.join(part.encode() for part in parts), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def shard_of(relation: str, row: Sequence[str], n_shards: int) -> int:
    """The shard a fact of a *split* relation lives on (deterministic)."""
    return _stable_hash(relation, *row) % n_shards


@dataclass(frozen=True)
class PartitionScheme:
    """The knobs of a partitioning: shard count and the replication threshold.

    ``replication_threshold`` draws the replicated/split line by fact count;
    it is part of the scheme (not a global) so a deployment can trade memory
    for shard-locality, and so two layouts agree exactly when their schemes
    and database contents agree.
    """

    n_shards: int
    replication_threshold: int = RELATION_REPLICATION_THRESHOLD

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ClusterError("a partition scheme needs at least one shard")
        if self.replication_threshold < 0:
            raise ClusterError("the replication threshold cannot be negative")


@dataclass(frozen=True)
class PartitionLayout:
    """One database partitioned: the shard sub-instances plus the full copy.

    Each shard keeps every constant and every uniqueness axiom (see the
    module docstring for why that is load-bearing), the full contents of
    every *replicated* relation, and its hash-slice of every *split*
    relation.  ``full`` is the unpartitioned original, served by the
    designated full-copy replica for non-decomposable queries.
    """

    name: str
    fingerprint: str
    scheme: PartitionScheme
    replicated: frozenset[str]
    split: frozenset[str]
    shards: tuple[CWDatabase, ...]
    full: CWDatabase

    @property
    def n_shards(self) -> int:
        return self.scheme.n_shards

    def shard_name(self, shard: int) -> str:
        """The registration name of one shard snapshot (``name::shardK``)."""
        if not 0 <= shard < self.n_shards:
            raise ClusterError(f"shard {shard} out of range for {self.name!r} ({self.n_shards} shards)")
        return f"{self.name}::shard{shard}"

    @property
    def full_name(self) -> str:
        """The registration name of the full copy.

        With a single shard the "shard" already holds every fact, so the
        full copy is the shard itself and no second snapshot is needed.
        """
        if self.n_shards == 1:
            return self.shard_name(0)
        return f"{self.name}::full"

    def snapshot_names(self) -> tuple[str, ...]:
        """Every distinct snapshot name of this layout (shards, then full)."""
        names = [self.shard_name(shard) for shard in range(self.n_shards)]
        if self.n_shards > 1:
            names.append(self.full_name)
        return tuple(names)

    def snapshot(self, name: str) -> CWDatabase:
        """The database behind one of :meth:`snapshot_names`."""
        for shard in range(self.n_shards):
            if name == self.shard_name(shard):
                return self.shards[shard]
        if name == f"{self.name}::full":
            return self.full
        raise ClusterError(f"{name!r} is not a snapshot of layout {self.name!r}")


def partition_database(name: str, database: CWDatabase, scheme: PartitionScheme) -> PartitionLayout:
    """Partition *database* under *scheme*; deterministic and fingerprint-stable.

    Relation classification depends only on content (fact counts), and
    tuple placement only on content hashes, so re-partitioning an equal
    database — in another process, after a round-trip through the snapshot
    store, or with facts inserted in a different order — reproduces the
    exact same shard fingerprints.
    """
    if not name:
        raise ClusterError("a partitioned database needs a nonempty name")
    replicated = set()
    split = set()
    for predicate in database.predicates:
        if len(database.facts_for(predicate)) <= scheme.replication_threshold:
            replicated.add(predicate)
        else:
            split.add(predicate)

    shard_facts: list[dict[str, set[tuple[str, ...]]]] = [
        {predicate: set() for predicate in database.predicates} for __ in range(scheme.n_shards)
    ]
    for predicate in sorted(database.predicates):
        rows = database.facts_for(predicate)
        if predicate in replicated:
            for facts in shard_facts:
                facts[predicate].update(rows)
        else:
            for row in rows:
                shard_facts[shard_of(predicate, row, scheme.n_shards)][predicate].add(row)

    shards = tuple(
        CWDatabase.from_unknowns(database.constants, database.predicates, facts, database.unknown, database.explicit)
        for facts in shard_facts
    )
    if scheme.n_shards == 1 and shards[0].fingerprint() != database.fingerprint():
        raise ClusterError(
            "single-shard partition does not reproduce the database — please report this as a bug"
        )
    return PartitionLayout(
        name=name,
        fingerprint=database.fingerprint(),
        scheme=scheme,
        replicated=frozenset(replicated),
        split=frozenset(split),
        shards=shards,
        full=database,
    )


# Query decomposition ----------------------------------------------------------


@dataclass(frozen=True)
class RoutePlan:
    """Base class of the routing decisions; see the subclasses."""


@dataclass(frozen=True)
class SingleShard(RoutePlan):
    """The whole query runs on one shard (all its relations live there in full)."""

    shard: int


@dataclass(frozen=True)
class ScatterUnion(RoutePlan):
    """The query runs on every shard; answers merge by set union."""


@dataclass(frozen=True)
class BooleanConjunction(RoutePlan):
    """A Boolean conjunction: each conjunct routes on its own, results AND."""

    #: (sub-query text, sub-plan) per conjunct; texts re-parse on the workers.
    parts: tuple[tuple[str, RoutePlan], ...]


@dataclass(frozen=True)
class FullCopy(RoutePlan):
    """Not provably decomposable: route to the full-copy replica."""

    reason: str


def decompose_query(layout: PartitionLayout, query: Query) -> RoutePlan:
    """Prove a query decomposable, or send it to the full copy.

    The returned plan is *sound by construction*: each accepted shape comes
    with the argument (module docstring) that its merged shard answers equal
    single-process evaluation byte for byte, for the exact route and the
    approximation alike.  Everything unproven falls back — correct first,
    scalable where we can show it.

    **Parameter stability.**  Every rule inspects only the query's *shape*
    — the predicates it mentions, whether it is a bare atom or a Boolean
    conjunction — never the identity of its constants, and ``$name``
    parameters type as constants.  A template's plan is therefore valid for
    *every* binding, which is what lets the router
    (:meth:`~repro.cluster.router.ClusterRouter.prepare`) decompose once per
    template and merely substitute constants per execution.  (The
    ``SingleShard`` pick below hashes the query text, but any shard is
    correct for an all-replicated query — the hash is load balancing, not
    correctness.)
    """
    if layout.n_shards == 1:
        return SingleShard(0)
    mentioned = {atom for atom in predicates_in(query.formula)}
    foreign = mentioned - set(layout.full.predicates)
    if foreign:
        # Unknown (e.g. second-order quantified) predicates: let the full
        # copy reproduce exactly the single-process behaviour, errors included.
        return FullCopy(f"mentions non-base predicates: {', '.join(sorted(foreign))}")
    if mentioned <= layout.replicated:
        return SingleShard(_stable_hash(layout.name, query_to_text(query)) % layout.n_shards)
    if isinstance(query.formula, Atom):
        # A bare positive atom over split relations: certain answers are the
        # stored matching facts, which the shards partition exactly.
        return ScatterUnion()
    if query.is_boolean and isinstance(query.formula, And):
        parts = []
        for operand in query.formula.operands:
            sub_query = boolean_query(operand)
            sub_plan = decompose_query(layout, sub_query)
            if isinstance(sub_plan, FullCopy):
                return FullCopy(f"conjunct not decomposable ({sub_plan.reason})")
            parts.append((query_to_text(sub_query), sub_plan))
        return BooleanConjunction(tuple(parts))
    return FullCopy("no decomposition rule applies")
