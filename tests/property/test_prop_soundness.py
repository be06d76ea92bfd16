"""Property-based tests for the paper's central guarantees.

These are the most valuable properties in the suite: over random small
databases and random queries,

* Theorem 11 — the approximation never returns a non-certain answer;
* Theorem 12 — it is exact on fully specified databases;
* Theorem 13 — it is exact on positive queries;
* Theorem 1 (cross-check) — the canonical-partition evaluator agrees with
  the naive all-mappings evaluator;
* ``Ph2`` answers exactly as a reference ``Ph2`` with a materialized ``NE``.
"""

from hypothesis import given, settings

from repro.approx.evaluator import ApproximateEvaluator
from repro.logical.exact import certain_answers
from repro.physical.evaluator import evaluate_query
from tests.property.strategies import cw_databases, materialized_ph2, queries

MAX_EXAMPLES = 40

_DIRECT = ApproximateEvaluator()
_ALGEBRA = ApproximateEvaluator(engine="algebra")


class TestTheorem11Soundness:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(database=cw_databases(), query=queries())
    def test_approximation_is_sound(self, database, query):
        assert _DIRECT.answers(database, query) <= certain_answers(database, query)

    @settings(max_examples=30, deadline=None)
    @given(database=cw_databases(max_constants=3), query=queries())
    def test_algebra_engine_is_sound_too(self, database, query):
        assert _ALGEBRA.answers(database, query) <= certain_answers(database, query)


class TestTheorem12And13Completeness:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(database=cw_databases(), query=queries())
    def test_exact_on_fully_specified_databases(self, database, query):
        specified = database.fully_specified()
        assert _DIRECT.answers(specified, query) == certain_answers(specified, query)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(database=cw_databases(), query=queries(allow_negation=False))
    def test_exact_on_positive_queries(self, database, query):
        assert _DIRECT.answers(database, query) == certain_answers(database, query)


class TestEvaluatorCrossChecks:
    @settings(max_examples=25, deadline=None)
    @given(database=cw_databases(max_constants=3, max_facts=4), query=queries())
    def test_canonical_and_naive_theorem1_agree(self, database, query):
        assert certain_answers(database, query, strategy="canonical") == certain_answers(
            database, query, strategy="all"
        )

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(database=cw_databases(), query=queries())
    def test_ph2_matches_the_materialized_reference(self, database, query):
        reference = evaluate_query(materialized_ph2(database), _DIRECT.rewrite(query))
        assert _DIRECT.answers(database, query) == reference

    @settings(max_examples=25, deadline=None)
    @given(database=cw_databases(max_constants=3, max_facts=4), query=queries())
    def test_formula_mode_matches_direct_mode(self, database, query):
        formula_mode = ApproximateEvaluator(mode="formula")
        assert formula_mode.answers(database, query) == _DIRECT.answers(database, query)
