"""Size/shape tests for the reductions of Section 4.

The paper's hardness arguments need the reductions to be cheap (logarithmic
space).  We cannot measure space of a Python function meaningfully, but we
can check the structural consequences the proofs rely on:

* the output database grows *linearly* in the input instance;
* the output query is *fixed* for data-complexity reductions (Theorem 5,
  Theorem 9 for fixed clause shapes) and grows linearly in the formula for
  the combined-complexity reduction (Theorem 7);
* the reductions never introduce spurious unknown values beyond the ones the
  constructions call for.
"""

from repro.complexity.qbf import random_3cnf_qbf, random_qbf
from repro.complexity.qbf_reduction import reduce_qbf
from repro.complexity.so_reduction import reduce_3cnf_qbf
from repro.complexity.three_coloring import coloring_database, coloring_query, cycle_graph
from repro.logic.formulas import walk


class TestColoringReductionSize:
    def test_database_constants_grow_linearly(self):
        sizes = {n: len(coloring_database(cycle_graph(n)).constants) for n in (3, 6, 9)}
        assert sizes[6] - sizes[3] == 3
        assert sizes[9] - sizes[6] == 3

    def test_database_facts_grow_linearly_with_edges(self):
        assert len(coloring_database(cycle_graph(8)).facts_for("R")) == 8

    def test_uniqueness_axioms_are_constantly_three(self):
        for n in (3, 5, 9):
            assert coloring_database(cycle_graph(n)).uniqueness_axiom_count() == 3

    def test_query_is_literally_the_same_object_shape(self):
        assert coloring_query() == coloring_query()
        assert len(list(walk(coloring_query().formula))) < 10


class TestQBFReductionSize:
    def test_database_depends_only_on_the_first_block(self):
        small = reduce_qbf(random_qbf(2, 2, 2, seed=0))
        many_clauses = reduce_qbf(random_qbf(2, 2, 8, seed=0))
        assert small.database.constants == many_clauses.database.constants
        assert small.database.unequal_pairs() == many_clauses.database.unequal_pairs()

    def test_query_size_linear_in_the_matrix(self):
        small = reduce_qbf(random_qbf(2, 2, 2, seed=1))
        large = reduce_qbf(random_qbf(2, 2, 8, seed=1))
        small_size = len(list(walk(small.query.formula)))
        large_size = len(list(walk(large.query.formula)))
        assert small_size < large_size < 8 * small_size

    def test_single_uniqueness_axiom(self):
        reduction = reduce_qbf(random_qbf(3, 2, 3, seed=2))
        assert reduction.database.uniqueness_axiom_count() == 1


class TestSOReductionSize:
    def test_database_constants_linear_in_variables(self):
        small = reduce_3cnf_qbf(random_3cnf_qbf(2, 1, 2, seed=0))
        large = reduce_3cnf_qbf(random_3cnf_qbf(2, 3, 2, seed=0))
        assert len(small.database.constants) == 1 + 2
        assert len(large.database.constants) == 1 + 6

    def test_facts_linear_in_clauses(self):
        reduction = reduce_3cnf_qbf(random_3cnf_qbf(2, 2, 5, seed=3))
        total_facts = sum(len(rows) for rows in reduction.database.facts.values())
        # N1(1) plus at most one fact per clause (identical clauses collapse).
        assert total_facts <= 1 + 5

    def test_query_is_second_order_and_small(self):
        reduction = reduce_3cnf_qbf(random_3cnf_qbf(2, 2, 3, seed=4))
        assert not reduction.query.is_first_order
        assert len(list(walk(reduction.query.formula))) < 200
