"""Whole-pipeline integration tests: store, query, persist, reload.

These exercise the flow a downstream user would run: build a CW database,
store it as ``Ph2`` (the "standard relational system" representation),
compile and run queries through both engines, persist to CSV and reload.
"""

from repro import ApproximateEvaluator, CWDatabase, certain_answers, parse_query
from repro.logic.vocabulary import NE_PREDICATE
from repro.physical.algebra import execute
from repro.physical.compiler import compile_query
from repro.physical.csvio import load_cw_database, save_cw_database
from repro.workloads.generators import employee_database


class TestStorageAndEngines:
    def test_ph2_plus_algebra_pipeline(self):
        database = employee_database(15, n_departments=4, unknown_manager_fraction=0.5, seed=9)
        evaluator = ApproximateEvaluator(engine="algebra")
        storage = evaluator.storage(database)
        assert storage.has_relation(NE_PREDICATE)

        query = parse_query("(e, m) . exists d. EMP_DEPT(e, d) & DEPT_MGR(d, m)")
        rewritten = evaluator.rewrite(query)
        plan = compile_query(rewritten, storage)
        result = execute(plan, storage)
        assert result.columns == ("e", "m")
        assert frozenset(result.rows) == evaluator.answers(database, query)

    def test_all_evaluator_configurations_agree_on_the_employee_workload(self):
        # Small instance on purpose: the "formula" mode inlines Lemma 10's
        # connectivity formula, whose naive Tarskian evaluation is exponential
        # in its quantifier rank — fine here, hopeless on hundreds of constants.
        database = employee_database(5, n_departments=2, unknown_manager_fraction=0.5, seed=2)
        queries = [
            parse_query("(e) . exists d. EMP_DEPT(e, d) & DEPT_MGR(d, e)"),
            parse_query("(e) . ~EMP_SAL(e, 'high')"),
            parse_query("(d) . forall m. DEPT_MGR(d, m) -> EMP_SAL(m, 'high')"),
        ]
        configurations = [
            ApproximateEvaluator(mode="direct", engine="tarski"),
            ApproximateEvaluator(mode="direct", engine="algebra"),
            ApproximateEvaluator(mode="direct", engine="auto"),
        ]
        for query in queries:
            answers = {config.engine + config.mode: config.answers(database, query)
                       for config in configurations}
            assert len(set(map(frozenset, answers.values()))) == 1, answers


class TestPersistenceRoundTrip:
    def test_save_query_reload_query(self, tmp_path):
        database = CWDatabase(
            ("a", "b", "c"),
            {"P": 1, "R": 2},
            {"P": [("a",)], "R": [("a", "b"), ("b", "c")]},
            [("a", "b"), ("b", "c")],
        )
        query = parse_query("(x) . exists y. R(x, y) & ~P(y)")
        before = certain_answers(database, query)

        save_cw_database(database, tmp_path / "db")
        reloaded = load_cw_database(tmp_path / "db")
        after = certain_answers(reloaded, query)
        assert before == after
