"""Unit tests for the compact U / NE' representation of the inequality relation."""

import random

from repro.logical.database import CWDatabase
from repro.logical.unknowns import (
    CompactNEEncoding,
    VirtualNERelation,
    _greedy_vertex_cover,
    compact_ne_encoding,
)
from repro.workloads.generators import employee_database


class TestCompactEncoding:
    def test_fully_specified_database_has_empty_u_and_ne_prime(self, teaches_cw):
        encoding = compact_ne_encoding(teaches_cw)
        assert encoding.unknown == frozenset()
        assert encoding.explicit == frozenset()
        assert encoding.stored_size == 0

    def test_u_is_a_vertex_cover_of_the_missing_pairs(self, ripper_cw):
        encoding = compact_ne_encoding(ripper_cw)
        # jack alone covers every missing uniqueness pair, so U = {jack}.
        assert encoding.unknown == frozenset({"jack"})
        for left, right in ripper_cw.missing_uniqueness_pairs():
            assert left in encoding.unknown or right in encoding.unknown

    def test_holds_matches_the_definition(self, ripper_cw):
        encoding = compact_ne_encoding(ripper_cw)
        # declared unequal (and both unknown because of jack): stored in NE'.
        assert encoding.holds("disraeli", "dickens")
        # no axiom between jack and dickens.
        assert not encoding.holds("jack", "dickens")
        # never unequal to itself.
        assert not encoding.holds("jack", "jack")

    def test_known_pairs_are_implicitly_unequal(self):
        db = CWDatabase(
            ("a", "b", "u1", "u2"),
            {"P": 1},
            {"P": [("a",)]},
            # a, b known and distinct from everything; u1, u2 unknown.
            unequal=[("a", "b"), ("a", "u1"), ("a", "u2"), ("b", "u1"), ("b", "u2")],
        )
        encoding = compact_ne_encoding(db)
        # A single unknown constant suffices to cover the one missing pair (u1, u2).
        assert len(encoding.unknown) == 1
        assert encoding.unknown <= frozenset({"u1", "u2"})
        assert encoding.holds("a", "b")            # implicit: both known
        assert encoding.holds("a", "u1")           # declared
        assert encoding.holds("a", "u2")           # declared
        assert not encoding.holds("u1", "u2")      # unknown pair, no axiom

    def test_stored_size_smaller_than_materialized_for_mostly_known_data(self):
        constants = tuple(f"k{i}" for i in range(20)) + ("u1",)
        known = constants[:-1]
        unequal = [
            (left, right) for i, left in enumerate(known) for right in known[i + 1:]
        ]
        db = CWDatabase(constants, {"P": 1}, {"P": [("k0",)]}, unequal)
        encoding = compact_ne_encoding(db)
        assert encoding.stored_size < encoding.materialized_size
        assert encoding.materialized_size == 20 * 19  # ordered pairs among known values

    def test_pairs_iteration_matches_holds(self, ripper_cw):
        encoding = compact_ne_encoding(ripper_cw)
        for left, right in encoding.pairs():
            assert encoding.holds(left, right)

    def test_holds_is_exactly_the_declared_uniqueness_axioms(self):
        db = CWDatabase(
            ("a", "b", "c", "u1", "u2"),
            {"P": 1},
            {"P": [("a",)]},
            unequal=[("a", "b"), ("a", "c"), ("b", "c"), ("a", "u1"), ("b", "u2"), ("u1", "u2")],
        )
        encoding = compact_ne_encoding(db)
        for left in db.constants:
            for right in db.constants:
                assert encoding.holds(left, right) == db.are_known_distinct(left, right)


class TestUnknownConstants:
    """``CWDatabase.unknown_constants`` is every endpoint, not the encoding's ``U``."""

    def test_one_unconstrained_null_puts_every_constant_in_the_endpoints(self):
        known = ("a", "b", "c")
        unequal = [(left, right) for i, left in enumerate(known) for right in known[i + 1:]]
        db = CWDatabase(known + ("null",), {"P": 1}, {"P": [("a",)]}, unequal)
        assert db.unknown_constants() == frozenset(db.constants)
        assert compact_ne_encoding(db).unknown == frozenset({"null"})

    def test_endpoints_are_exactly_the_constants_of_missing_pairs(self):
        db = CWDatabase(
            ("a", "b", "u1", "u2"),
            {"P": 1},
            {"P": [("a",)]},
            unequal=[("a", "b"), ("a", "u1"), ("a", "u2"), ("b", "u1"), ("b", "u2")],
        )
        endpoints = {constant for pair in db.missing_uniqueness_pairs() for constant in pair}
        assert db.unknown_constants() == frozenset(endpoints) == frozenset({"u1", "u2"})
        assert compact_ne_encoding(db).unknown < db.unknown_constants()

    def test_employee_database_endpoints_dwarf_the_compact_u(self):
        db = employee_database(300, seed=21)
        encoding = compact_ne_encoding(db)
        assert len(db.constants) == 378
        assert len(db.unknown_constants()) == 378
        assert len(encoding.unknown) == 15
        assert encoding.unknown <= db.unknown_constants()


class TestGreedyVertexCover:
    def test_no_edges_needs_no_cover(self):
        assert _greedy_vertex_cover(frozenset()) == set()

    def test_star_is_covered_by_its_centre(self):
        edges = frozenset(("hub", leaf) for leaf in ("a", "b", "c", "d"))
        assert _greedy_vertex_cover(edges) == {"hub"}

    def test_ties_break_deterministically(self):
        edges = frozenset({("x", "y")})
        assert _greedy_vertex_cover(edges) == {"x"}
        assert _greedy_vertex_cover(frozenset({("y", "x")})) == {"x"}

    def test_every_edge_of_a_random_graph_is_covered(self):
        rng = random.Random(5)
        vertices = [f"v{i}" for i in range(12)]
        for __ in range(20):
            edges = frozenset(
                tuple(rng.sample(vertices, 2)) for __ in range(rng.randint(1, 30))
            )
            cover = _greedy_vertex_cover(edges)
            assert all(left in cover or right in cover for left, right in edges)
            assert cover <= {vertex for edge in edges for vertex in edge}

    def test_any_vertex_cover_gives_the_same_virtual_relation(self, ripper_cw):
        # Soundness needs only *a* cover: the greedy U and the full endpoint
        # set describe the same NE.
        greedy = compact_ne_encoding(ripper_cw)
        everything = frozenset(ripper_cw.unknown_constants())
        explicit = frozenset(
            ordered
            for pair in ripper_cw.unequal_pairs()
            for ordered in (pair, pair[::-1])
            if pair[0] in everything or pair[1] in everything
        )
        wide = CompactNEEncoding(ripper_cw.constants, everything, explicit)
        assert greedy.unknown < wide.unknown
        assert set(greedy.pairs()) == set(wide.pairs())


class TestVirtualRelation:
    def test_contains_and_iteration_agree(self, ripper_cw):
        relation = VirtualNERelation(compact_ne_encoding(ripper_cw))
        materialized = set(relation)
        for pair in materialized:
            assert pair in relation
        assert len(relation) == len(materialized)

    def test_ill_shaped_members_are_rejected(self, ripper_cw):
        relation = VirtualNERelation(compact_ne_encoding(ripper_cw))
        assert ("a",) not in relation
        assert "ab" not in relation

    def test_relation_protocol_fields(self, ripper_cw):
        relation = VirtualNERelation(compact_ne_encoding(ripper_cw))
        assert relation.name == "NE"
        assert relation.arity == 2
        assert relation.stored_size == relation.encoding.stored_size
