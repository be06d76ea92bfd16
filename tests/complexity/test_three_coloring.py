"""Tests for the Theorem 5(2) reduction: 3-colorability <-> logical query evaluation."""

import pytest

from repro.errors import ReductionError
from repro.complexity.three_coloring import (
    COLOR_CONSTANTS,
    Graph,
    coloring_database,
    coloring_query,
    complete_graph,
    cycle_graph,
    exhaustive_colorings,
    is_3_colorable_bruteforce,
    is_3_colorable_via_certain_answers,
    random_graph,
)


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ReductionError):
            Graph((1, 2), [(1, 1)])

    def test_rejects_unknown_vertices(self):
        with pytest.raises(ReductionError):
            Graph((1, 2), [(1, 3)])

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ReductionError):
            Graph((1, 1), [])

    def test_edges_are_undirected(self):
        graph = Graph((1, 2), [(1, 2), (2, 1)])
        assert graph.n_edges == 1

    def test_neighbours(self):
        graph = cycle_graph(4)
        assert graph.neighbours(0) == frozenset({1, 3})

    def test_generators(self):
        assert complete_graph(4).n_edges == 6
        assert cycle_graph(5).n_edges == 5
        graph = random_graph(6, 0.5, seed=1)
        assert graph.n_vertices == 6
        assert random_graph(6, 0.5, seed=1).edges == graph.edges  # deterministic


class TestBruteForce:
    def test_known_colorable_and_uncolorable_graphs(self):
        assert is_3_colorable_bruteforce(complete_graph(3))
        assert not is_3_colorable_bruteforce(complete_graph(4))
        assert is_3_colorable_bruteforce(cycle_graph(5))
        assert is_3_colorable_bruteforce(Graph((1,), []))

    def test_exhaustive_count_matches_decision(self):
        graph = cycle_graph(4)
        assert (exhaustive_colorings(graph) > 0) == is_3_colorable_bruteforce(graph)
        assert exhaustive_colorings(complete_graph(4)) == 0

    def test_triangle_has_six_colorings(self):
        assert exhaustive_colorings(complete_graph(3)) == 6


class TestReductionConstruction:
    def test_database_shape(self):
        graph = cycle_graph(3)
        database = coloring_database(graph)
        assert set(COLOR_CONSTANTS) <= set(database.constants)
        assert len(database.constants) == 3 + 3
        assert database.facts_for("M") == frozenset({("1",), ("2",), ("3",)})
        assert len(database.facts_for("R")) == 3
        # Only the three color constants are pairwise distinct.
        assert database.uniqueness_axiom_count() == 3

    def test_query_is_fixed_and_boolean(self):
        query = coloring_query()
        assert query.is_boolean
        assert query.is_first_order
        # data complexity result: the query does not depend on the graph
        assert coloring_query() == query

    def test_database_grows_linearly_with_the_graph(self):
        small = coloring_database(cycle_graph(3))
        large = coloring_database(cycle_graph(6))
        assert len(large.constants) == len(small.constants) + 3
        assert len(large.facts_for("R")) == 6


class TestReductionCorrectness:
    @pytest.mark.parametrize("graph_builder,expected", [
        (lambda: complete_graph(3), True),
        (lambda: complete_graph(4), False),
        (lambda: cycle_graph(4), True),
        (lambda: cycle_graph(5), True),
        (lambda: Graph((1, 2, 3), []), True),
    ])
    def test_known_instances(self, graph_builder, expected):
        assert is_3_colorable_via_certain_answers(graph_builder()) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_agree_with_bruteforce(self, seed):
        graph = random_graph(5, 0.55, seed=seed)
        assert is_3_colorable_via_certain_answers(graph) == is_3_colorable_bruteforce(graph)

    def test_certain_answer_is_the_complement_of_colorability(self):
        from repro.logical.exact import certainly_holds

        graph = complete_graph(4)
        database = coloring_database(graph)
        query = coloring_query()
        # K4 is not 3-colorable, so the sentence IS finitely implied.
        assert certainly_holds(database, query.formula)
