"""Unit tests for the U / NE' encoding of the uniqueness axioms."""

import random
import time

from repro.logical.database import CWDatabase, _greedy_vertex_cover
from repro.logical.unknowns import VirtualNERelation
from repro.workloads.generators import employee_database


def _cover(edges):
    adjacency = {}
    for left, right in edges:
        adjacency.setdefault(left, set()).add(right)
        adjacency.setdefault(right, set()).add(left)
    return _greedy_vertex_cover(adjacency)


class TestEncoding:
    def test_fully_specified_database_has_empty_u_and_ne_prime(self, teaches_cw):
        assert teaches_cw.unknown == frozenset()
        assert teaches_cw.explicit == frozenset()
        assert VirtualNERelation(teaches_cw).stored_size == 0

    def test_u_is_a_vertex_cover_of_the_missing_pairs(self, ripper_cw):
        # jack alone covers every missing uniqueness pair, so U = {jack}.
        assert ripper_cw.unknown == frozenset({"jack"})
        for left, right in ripper_cw.missing_uniqueness_pairs():
            assert left in ripper_cw.unknown or right in ripper_cw.unknown

    def test_membership_matches_the_definition(self, ripper_cw):
        # declared unequal, neither unknown: implied, not stored in NE'.
        assert ripper_cw.are_known_distinct("disraeli", "dickens")
        # no axiom between jack and dickens.
        assert not ripper_cw.are_known_distinct("jack", "dickens")
        # never unequal to itself.
        assert not ripper_cw.are_known_distinct("jack", "jack")

    def test_known_pairs_are_implicitly_unequal(self):
        db = CWDatabase(
            ("a", "b", "u1", "u2"),
            {"P": 1},
            {"P": [("a",)]},
            # a, b known and distinct from everything; u1, u2 unknown.
            unequal=[("a", "b"), ("a", "u1"), ("a", "u2"), ("b", "u1"), ("b", "u2")],
        )
        # A single unknown constant suffices to cover the one missing pair (u1, u2).
        assert db.unknown == frozenset({"u1"})
        assert db.explicit_pairs() == [("a", "u1"), ("b", "u1")]
        assert db.are_known_distinct("a", "b")            # implicit: both known
        assert db.are_known_distinct("a", "u1")           # declared, in NE'
        assert db.are_known_distinct("a", "u2")           # implicit: u2 is not in U
        assert not db.are_known_distinct("u1", "u2")      # unknown pair, no axiom

    def test_stored_size_smaller_than_the_pairs_for_mostly_known_data(self):
        constants = tuple(f"k{i}" for i in range(20)) + ("u1",)
        known = constants[:-1]
        unequal = [
            (left, right) for i, left in enumerate(known) for right in known[i + 1:]
        ]
        db = CWDatabase(constants, {"P": 1}, {"P": [("k0",)]}, unequal)
        relation = VirtualNERelation(db)
        assert relation.stored_size == 1
        assert len(relation) == 20 * 19  # ordered pairs among known values

    def test_membership_is_exactly_the_declared_uniqueness_axioms(self):
        db = CWDatabase(
            ("a", "b", "c", "u1", "u2"),
            {"P": 1},
            {"P": [("a",)]},
            unequal=[("a", "b"), ("a", "c"), ("b", "c"), ("a", "u1"), ("b", "u2"), ("u1", "u2")],
        )
        declared = {frozenset(pair) for pair in db.unequal_pairs()}
        assert declared == {
            frozenset(pair)
            for pair in [("a", "b"), ("a", "c"), ("b", "c"), ("a", "u1"), ("b", "u2"), ("u1", "u2")]
        }
        for left in db.constants:
            for right in db.constants:
                assert db.are_known_distinct(left, right) == (frozenset((left, right)) in declared)

    def test_employee_database_is_fifteen_entries(self):
        db = employee_database(300, seed=21)
        assert len(db.constants) == 378
        assert (len(db.unknown), len(db.explicit)) == (15, 0)
        assert db.uniqueness_axiom_count() == 65_703
        assert len(VirtualNERelation(db)) == 131_406


class TestUnknownConstants:
    """``CWDatabase.unknown_constants`` is the encoding's ``U``, not every endpoint."""

    def test_one_unconstrained_null_is_the_only_unknown(self):
        known = ("a", "b", "c")
        unequal = [(left, right) for i, left in enumerate(known) for right in known[i + 1:]]
        db = CWDatabase(known + ("null",), {"P": 1}, {"P": [("a",)]}, unequal)
        endpoints = {constant for pair in db.missing_uniqueness_pairs() for constant in pair}
        assert endpoints == frozenset(db.constants)
        assert db.unknown_constants() == frozenset({"null"})

    def test_unknowns_cover_every_missing_pair(self):
        db = CWDatabase(
            ("a", "b", "u1", "u2"),
            {"P": 1},
            {"P": [("a",)]},
            unequal=[("a", "b"), ("a", "u1"), ("a", "u2"), ("b", "u1"), ("b", "u2")],
        )
        endpoints = {constant for pair in db.missing_uniqueness_pairs() for constant in pair}
        assert endpoints == frozenset({"u1", "u2"})
        assert db.unknown_constants() < endpoints

    def test_employee_database_reports_its_fifteen_nulls(self):
        db = employee_database(300, seed=21)
        nulls = {name for name in db.constants if name.startswith("mgr_null")}
        assert db.unknown_constants() == nulls
        assert len(nulls) == 15
        assert "15 unknown constants" in db.describe()

    def test_info_response_lists_u_and_counts_the_axioms(self):
        from repro.service.protocol import build_info_response

        db = employee_database(300, seed=21)
        info = build_info_response("emp", db)
        assert info.unknown_constants == tuple(sorted(db.unknown))
        assert len(info.unknown_constants) == 15
        assert info.uniqueness_axioms == 378 * 377 // 2 - len(db.missing_uniqueness_pairs()) == 65_703
        assert not info.fully_specified


class TestGreedyVertexCover:
    def test_no_edges_needs_no_cover(self):
        assert _cover(frozenset()) == set()

    def test_star_is_covered_by_its_centre(self):
        edges = frozenset(("hub", leaf) for leaf in ("a", "b", "c", "d"))
        assert _cover(edges) == {"hub"}

    def test_ties_break_deterministically(self):
        edges = frozenset({("x", "y")})
        assert _cover(edges) == {"x"}
        assert _cover(frozenset({("y", "x")})) == {"x"}

    def test_every_edge_of_a_random_graph_is_covered(self):
        rng = random.Random(5)
        vertices = [f"v{i}" for i in range(12)]
        for __ in range(20):
            edges = frozenset(
                tuple(rng.sample(vertices, 2)) for __ in range(rng.randint(1, 30))
            )
            cover = _cover(edges)
            assert all(left in cover or right in cover for left, right in edges)
            assert cover <= {vertex for edge in edges for vertex in edge}

    def test_degrees_update_as_edges_are_covered(self):
        # "a" has the highest degree first; after it goes, "d" (still two
        # uncovered edges) beats the leaves.  Recomputing every degree from
        # scratch picks the same vertices.
        edges = {("a", "b"), ("a", "c"), ("a", "d"), ("d", "e"), ("d", "f")}
        assert _cover(edges) == {"a", "d"}

    def test_input_is_not_consumed(self):
        adjacency = {"x": {"y"}, "y": {"x"}}
        _greedy_vertex_cover(adjacency)
        assert adjacency == {"x": {"y"}, "y": {"x"}}

    def test_no_uniqueness_on_the_benchmark_database_constructs_quickly(self):
        db = employee_database(300, seed=21)
        started = time.perf_counter()
        stripped = db.without_uniqueness()
        assert time.perf_counter() - started < 1.0
        assert len(stripped.unknown) == 377  # a complete graph needs all but one
        assert stripped.uniqueness_axiom_count() == 0
        for left, right in stripped.missing_uniqueness_pairs():
            assert left in stripped.unknown or right in stripped.unknown

    def test_a_larger_cover_gives_the_same_database(self, ripper_cw):
        # Soundness needs only *a* cover; construction re-derives U, so the
        # full endpoint set describes the same database.
        endpoints = {constant for pair in ripper_cw.missing_uniqueness_pairs() for constant in pair}
        wide = CWDatabase.from_unknowns(
            ripper_cw.constants,
            ripper_cw.predicates,
            ripper_cw.facts,
            unknown=endpoints,
            explicit=[pair for pair in ripper_cw.unequal_pairs() if set(pair) & endpoints],
        )
        assert ripper_cw.unknown < endpoints
        assert wide == ripper_cw
        assert set(VirtualNERelation(wide)) == set(VirtualNERelation(ripper_cw))


class TestVirtualRelation:
    def test_contains_and_iteration_agree(self, ripper_cw):
        relation = VirtualNERelation(ripper_cw)
        materialized = set(relation)
        for pair in materialized:
            assert pair in relation
        assert len(relation) == len(materialized)
        assert relation.values() == {value for pair in materialized for value in pair}

    def test_ill_shaped_members_are_rejected(self, ripper_cw):
        relation = VirtualNERelation(ripper_cw)
        assert ("a",) not in relation
        assert "ab" not in relation

    def test_relation_protocol_fields(self, ripper_cw):
        relation = VirtualNERelation(ripper_cw)
        assert relation.name == "NE"
        assert relation.arity == 2
        assert relation.stored_size == len(ripper_cw.unknown) + len(ripper_cw.explicit)
        assert relation.unknown == ripper_cw.unknown
