"""Concurrent soundness: parallel approximate answers stay within exact answers.

Theorem 11's guarantee (every approximate answer is a certain answer) must
survive the serving layer: many threads sharing one precomputed ``Ph2``
snapshot and one response cache must produce exactly the answers sequential
one-shot evaluation produces.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.logic.parser import parse_query
from repro.logical.exact import certain_answers
from repro.logic.printer import query_to_text
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest
from repro.workloads.scenarios import employee_intro_scenario, jack_the_ripper_database
from repro.workloads.traffic import TrafficProfile, register_scenarios, traffic_stream


def _scenario_queries():
    employee = employee_intro_scenario()
    ripper = jack_the_ripper_database()
    cases = []
    for query in employee.queries:
        cases.append(("employee-intro", employee.database, query_to_text(query)))
    for text in ("(x) . MURDERER(x)", "(x) . LIVED_IN_LONDON(x)", "(x) . ~MURDERER(x)"):
        cases.append(("jack-the-ripper", ripper, text))
    return cases


@pytest.fixture
def service():
    service = QueryService()
    register_scenarios(service)
    return service


class TestConcurrentSoundness:
    def test_parallel_approx_answers_are_subsets_of_exact(self, service):
        cases = _scenario_queries()

        def evaluate(case):
            name, database, text = case
            approx = service.query(name, text).answer_set("approximate")
            exact = certain_answers(database, parse_query(text))
            return name, text, approx, exact

        # Each query evaluated by 4 threads at once, against shared snapshots.
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(evaluate, cases * 4))
        for name, text, approx, exact in results:
            assert approx <= exact, f"soundness violated under concurrency for {name}: {text}"

    def test_concurrent_answers_equal_sequential_one_shot(self, service):
        stream = traffic_stream(
            40, profile=TrafficProfile(hot_fraction=0.5, exact_fraction=0.15), seed=5
        )
        databases = {name: service.entry(name).database for name in service.database_names()}

        expected = []
        for request in stream:
            query = parse_query(request.query)
            row = {}
            if request.method in ("approx", "both"):
                evaluator = ApproximateEvaluator(engine=request.engine)
                row["approximate"] = evaluator.answers(databases[request.database], query)
            if request.method in ("exact", "both"):
                row["exact"] = certain_answers(databases[request.database], query)
            expected.append(row)

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(service.execute, stream))

        for request, response, row in zip(stream, responses, expected):
            for label, answers in row.items():
                assert response.answer_set(label) == answers, (request, label)

    def test_concurrent_registration_and_querying(self, service, tiny_unknown_cw):
        request = QueryRequest("jack-the-ripper", "(x) . MURDERER(x)")

        def register(index: int):
            service.register(f"tiny-{index}", tiny_unknown_cw)
            return service.query(f"tiny-{index}", "(x) . P(x)").answer_set("approximate")

        def query(_: int):
            return service.execute(request).answer_set("approximate")

        with ThreadPoolExecutor(max_workers=8) as pool:
            registered = list(pool.map(register, range(10)))
            queried = list(pool.map(query, range(20)))
        assert all(answers == frozenset({("a",)}) for answers in registered)
        assert all(answers == frozenset({("jack_the_ripper",)}) for answers in queried)
        assert len(service.database_names()) == 12
