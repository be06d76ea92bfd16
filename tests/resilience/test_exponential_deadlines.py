"""The exponential evaluators stop at the request's deadline.

Theorem 1's kernel enumeration and a second-order quantifier's relation
enumeration can each run for hours on a modest instance; the deadline is
the only thing that bounds them in a server.  Each evaluation runs on a
daemon thread so that a loop which ignores its deadline fails the test
instead of hanging the suite.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from contextlib import closing

import pytest

from repro.errors import DeadlineExceededError
from repro.logic.formulas import And, Atom, Not, SecondOrderExists
from repro.logic.queries import boolean_query
from repro.logic.terms import Constant
from repro.logic.vocabulary import Vocabulary
from repro.physical.database import PhysicalDatabase
from repro.physical.evaluator import evaluate_query
from repro.resilience import deadline_scope
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, dump_wire
from repro.service.server import running_server
from repro.workloads.generators import employee_database

#: Not certain for the unknown managers, so no early exit: every kernel of
#: the 300-employee database would be tried.
EXACT_QUERY = "(m) . ~DEPT_MGR('dept0', m)"


@pytest.fixture(scope="module")
def employees():
    service = QueryService()
    service.register("emp", employee_database(300, seed=21))
    yield service
    service.close()


def outcome_of(evaluate) -> tuple[BaseException | None, float]:
    """Run *evaluate* on a daemon thread; ``(what it raised, elapsed)``.

    Fails if the call has not returned after 5 s; the thread is then left
    to die with the process.
    """
    raised: list[BaseException | None] = []

    def run() -> None:
        try:
            evaluate()
        except BaseException as error:  # noqa: BLE001 - handed back to the test
            raised.append(error)
        else:
            raised.append(None)

    started = time.monotonic()
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(5.0)
    elapsed = time.monotonic() - started
    assert not thread.is_alive(), f"still running after {elapsed:.1f}s: the deadline was ignored"
    return raised[0], elapsed


def test_the_exact_kernel_loop_stops_at_the_deadline(employees):
    def evaluate():
        with deadline_scope(200):
            employees.execute(QueryRequest("emp", EXACT_QUERY, method="exact"))

    error, elapsed = outcome_of(evaluate)
    assert isinstance(error, DeadlineExceededError), error
    assert "exact kernel enumeration" in str(error)
    assert elapsed < 1.0


def test_a_second_order_enumeration_stops_at_the_deadline():
    # Two binary relation quantifiers over four elements: 2^16 candidates
    # each, 2^32 pairs, and no pair satisfies the body.
    elements = ("a", "b", "c", "d")
    database = PhysicalDatabase(
        Vocabulary(elements, {}), domain=set(elements), constants={name: name for name in elements}
    )
    a, b = Constant("a"), Constant("b")
    body = And((Atom("R", (a, b)), Atom("S", (b, a)), Not(Atom("R", (a, b)))))
    query = boolean_query(SecondOrderExists("R", 2, SecondOrderExists("S", 2, body)))

    def evaluate():
        with deadline_scope(100):
            evaluate_query(database, query)

    error, elapsed = outcome_of(evaluate)
    assert isinstance(error, DeadlineExceededError), error
    assert "second-order quantifier" in str(error)
    assert elapsed < 1.0


def test_a_served_exact_request_answers_504_at_its_deadline(employees):
    with running_server(employees) as server:
        wire = json.loads(dump_wire(QueryRequest("emp", EXACT_QUERY, method="exact")))
        wire["deadline_ms"] = 200
        host, port = server.server_address[:2]
        started = time.monotonic()
        with closing(http.client.HTTPConnection(host, port, timeout=5.0)) as connection:
            connection.request("POST", "/query", json.dumps(wire).encode(), {"Content-Type": "application/json"})
            response = connection.getresponse()
            status, body = response.status, json.loads(response.read())
        elapsed = time.monotonic() - started
    assert status == 504
    assert body["code"] == "deadline_exceeded"
    assert elapsed < 1.0
