"""Tests for the random workload generators."""

import pytest

from repro.logic.analysis import is_positive
from repro.workloads.generators import (
    EMPLOYEE_PREDICATES,
    employee_database,
    random_cw_database,
    random_positive_query,
    random_query,
)


class TestRandomCWDatabase:
    def test_shape_and_determinism(self):
        db = random_cw_database(5, {"P": 1, "R": 2}, 8, unknown_fraction=0.3, seed=11)
        again = random_cw_database(5, {"P": 1, "R": 2}, 8, unknown_fraction=0.3, seed=11)
        assert db.constants == again.constants
        assert db.facts == again.facts
        assert db.unequal_pairs() == again.unequal_pairs()
        assert len(db.constants) == 5

    def test_unknown_fraction_zero_gives_fully_specified(self):
        db = random_cw_database(6, {"P": 1}, 4, unknown_fraction=0.0, seed=1)
        assert db.is_fully_specified

    def test_unknown_fraction_one_gives_no_axioms(self):
        db = random_cw_database(6, {"P": 1}, 4, unknown_fraction=1.0, seed=1)
        assert db.uniqueness_axiom_count() == 0

    def test_fact_count_is_bounded_by_request(self):
        db = random_cw_database(4, {"P": 1}, 10, seed=2)
        assert sum(len(rows) for rows in db.facts.values()) <= 10

    def test_rejects_empty_constant_set(self):
        with pytest.raises(ValueError):
            random_cw_database(0, {"P": 1}, 1)


class TestRandomQueries:
    def test_queries_validate_against_their_schema(self):
        from repro.logic.vocabulary import Vocabulary

        predicates = {"P": 1, "R": 2}
        vocabulary = Vocabulary(("c0", "c1"), predicates)
        for seed in range(10):
            query = random_query(predicates, ("c0", "c1"), arity=1, depth=3, seed=seed)
            vocabulary.validate_formula(query.formula)

    def test_positive_queries_are_positive(self):
        for seed in range(10):
            query = random_positive_query({"P": 1, "R": 2}, arity=1, depth=3, seed=seed)
            assert is_positive(query.formula)

    def test_arity_controls_head(self):
        assert random_query({"P": 1}, arity=3, seed=0).arity == 3

    def test_determinism_per_seed(self):
        assert random_query({"P": 1, "R": 2}, arity=1, depth=3, seed=5) == random_query(
            {"P": 1, "R": 2}, arity=1, depth=3, seed=5
        )


class TestEmployeeWorkload:
    def test_every_employee_has_department_and_salary(self):
        db = employee_database(10, seed=3)
        assert len(db.facts_for("EMP_DEPT")) == 10
        assert len(db.facts_for("EMP_SAL")) == 10
        assert set(db.predicates) == set(EMPLOYEE_PREDICATES)

    def test_every_department_has_a_manager(self):
        db = employee_database(10, n_departments=3, seed=3)
        assert len(db.facts_for("DEPT_MGR")) == 3

    def test_null_managers_are_unknown_values(self):
        db = employee_database(10, n_departments=5, unknown_manager_fraction=1.0, seed=3)
        assert not db.is_fully_specified
        nulls = [c for c in db.constants if c.startswith("mgr_null")]
        assert len(nulls) == 5
        # null managers have no uniqueness axioms at all
        for null in nulls:
            assert all(not db.are_known_distinct(null, other) for other in db.constants if other != null)

    def test_no_nulls_gives_fully_specified_database(self):
        db = employee_database(8, unknown_manager_fraction=0.0, seed=4)
        assert db.is_fully_specified
