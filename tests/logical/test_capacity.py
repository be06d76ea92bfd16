"""Tests for the capacity guards on the exponential evaluators.

The exact evaluators are exponential by design; rather than hanging for
hours when pointed at a large database, they must refuse with
:class:`~repro.errors.CapacityError` — and the caps must be generous enough
not to trip on the small instances the rest of the suite uses.
"""

import pytest

from repro.errors import CapacityError
from repro.logic.parser import parse_query
from repro.logical.database import CWDatabase
from repro.logical.exact import CertainAnswerEvaluator
from repro.simulation.precise import evaluate_by_simulation
from repro.workloads.generators import random_cw_database


class TestExactEvaluatorCaps:
    def test_small_databases_never_trip_the_default_cap(self):
        database = random_cw_database(5, {"P": 1}, 4, 0.5, seed=0)
        CertainAnswerEvaluator().certain_answers(database, parse_query("(x) . P(x)"))

    def test_naive_strategy_trips_on_moderately_large_constant_sets(self):
        database = CWDatabase(tuple(f"c{i}" for i in range(12)), {"P": 1})
        evaluator = CertainAnswerEvaluator(strategy="all", max_mappings=10_000)
        with pytest.raises(CapacityError):
            evaluator.certain_answers(database, parse_query("(x) . P(x)"))

    def test_canonical_strategy_trips_when_the_cap_is_tiny(self):
        database = CWDatabase(tuple(f"c{i}" for i in range(6)), {"P": 1})
        evaluator = CertainAnswerEvaluator(strategy="canonical", max_mappings=3)
        with pytest.raises(CapacityError):
            evaluator.certain_answers(database, parse_query("(x) . P(x)"))


class TestSimulationCaps:
    def test_simulation_refuses_oversized_relation_enumeration(self):
        database = CWDatabase(tuple(f"c{i}" for i in range(5)), {"R": 2}, {"R": [("c0", "c1")]}, [])
        with pytest.raises(CapacityError):
            # 2^(5^2) candidate relations per quantified predicate is far above the cap.
            evaluate_by_simulation(database, parse_query("(x) . exists y. R(x, y)"), max_relations=1000)
