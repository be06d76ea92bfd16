"""Theorem 14 at serving scale: a negated request costs what its physical plan should.

The approximation has the data complexity of physical query evaluation, so
the serving path must not pay for the active domain or for ``PE`` as a
whole.  Deterministic counts, not clocks:

* on the benchmark database (``employee_database(300, seed=21)``) the E21
  ``neg_members`` plan has no ``ActiveDomain`` leaf and its exact
  ``may equal`` check sees only the refuted candidates of the stored tuples;
* on ``employee_database(3000, seed=21)`` no operator of the negation shapes
  emits more than twice the rows the plan's leaves read plus the rows it
  returns, the first negated request allocates at most 5 MB, and nothing
  enumerates ``PE`` (or ``NE``).

The answers are checked against their closed form on these databases: the
null managers (``U``) have no stated inequalities, so a stored
``DEPT_MGR(d, m)`` refutes ``~DEPT_MGR(d', k)`` exactly when ``d' = d`` and
``m`` is ``k`` or a null — which the Tarskian evaluator confirms on the
smaller database.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.logic.parser import parse_query
from repro.logical.unknowns import VirtualNERelation
from repro.physical.database import PossiblyEqualRelation
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest
from repro.workloads.generators import employee_database

NEG_MEMBERS = "(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, '{k}') & EMP_SAL('emp1', '{salary}')"
NEG_MANAGERS = "(m) . ~DEPT_MGR('{department}', m) & EMP_SAL('emp1', '{salary}')"
NEGATED_EQUALITY = "(x) . EMP_DEPT(x, 'dept1') & ~(x = 'emp3')"


def _department(database) -> str:
    """The first department with a known manager (as E21's ``neg_managers`` draws)."""
    return min(d for d, m in database.facts_for("DEPT_MGR") if m not in database.unknown)


def _texts(database) -> dict[str, str]:
    salary = dict(database.facts_for("EMP_SAL"))["emp1"]
    return {
        "neg_members": NEG_MEMBERS.format(k="emp7", salary=salary),
        "neg_managers": NEG_MANAGERS.format(department=_department(database), salary=salary),
        "negated_equality": NEGATED_EQUALITY,
    }


def _closed_form(database, shape: str) -> frozenset[tuple[str, ...]]:
    """The answer read off the facts (see the module docstring)."""
    nulls = database.unknown
    managers = database.facts_for("DEPT_MGR")
    if shape == "neg_members":
        refuted = {d for d, m in managers if m == "emp7" or m in nulls}
        return frozenset((x,) for x, d in database.facts_for("EMP_DEPT") if d not in refuted)
    if shape == "neg_managers":
        refuted = {m for d, m in managers if d == _department(database)} | nulls
        return frozenset((m,) for m in database.constants if m not in refuted)
    members = {x for x, d in database.facts_for("EMP_DEPT") if d == "dept1"}
    return frozenset((x,) for x in members if x != "emp3")


def _operators(node):
    yield node
    for child in node["children"]:
        yield from _operators(child)


def _served(service, text):
    response = service.execute(QueryRequest("emp", text, "approx", "auto", profile=True))
    return response.answer_set("approximate"), response.profile["operators"]


@pytest.fixture(scope="module")
def benchmark_database():
    return employee_database(300, seed=21)


@pytest.fixture(scope="module")
def large_database():
    return employee_database(3000, seed=21)


@pytest.fixture()
def refused():
    """Enumerating ``PE`` or ``NE`` raises for the duration of a test."""

    def refuse(*args):
        raise AssertionError("a derived quadratic relation was enumerated")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PossiblyEqualRelation, "__iter__", refuse)
        patch.setattr(VirtualNERelation, "__iter__", refuse)
        yield


@pytest.mark.parametrize("shape", ["neg_members", "neg_managers", "negated_equality"])
def test_the_closed_form_is_the_tarskian_answer(benchmark_database, shape):
    text = _texts(benchmark_database)[shape]
    truth = ApproximateEvaluator(engine="tarski").answers(benchmark_database, parse_query(text))
    assert truth == _closed_form(benchmark_database, shape)


def test_neg_members_anti_joins_its_own_departments(benchmark_database, refused):
    service = QueryService(answer_cache_capacity=0)
    service.register("emp", benchmark_database)
    try:
        answers, plan = _served(service, _texts(benchmark_database)["neg_members"])
    finally:
        service.close()
    assert answers == _closed_form(benchmark_database, "neg_members")
    operators = list(_operators(plan))
    assert not [node for node in operators if node["operator"].startswith("ActiveDomain")]
    (exact,) = [node for node in operators if "may equal" in node["operator"]]
    assert exact["children"][0]["rows"] <= 15  # the 15 departments managed by emp7 or a null


@pytest.fixture(scope="module")
def large_service(large_database):
    service = QueryService(answer_cache_capacity=0)
    service.register("emp", large_database)
    yield service
    service.close()


def test_the_first_negated_request_allocates_at_most_5_mb(large_database, large_service, refused):
    text = _texts(large_database)["neg_members"]
    tracemalloc.start()
    try:
        answers = large_service.execute(QueryRequest("emp", text, "approx", "auto")).answer_set("approximate")
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert answers == _closed_form(large_database, "neg_members")
    assert peak <= 5_000_000, peak


@pytest.mark.parametrize("shape", ["neg_members", "neg_managers", "negated_equality"])
def test_no_operator_outgrows_what_the_plan_reads_and_returns(large_database, large_service, refused, shape):
    answers, plan = _served(large_service, _texts(large_database)[shape])
    assert answers == _closed_form(large_database, shape)
    operators = list(_operators(plan))
    read = sum(node["rows"] or 0 for node in operators if not node["children"])
    budget = 2 * (read + len(answers))
    assert max(node["rows"] or 0 for node in operators) <= budget, [
        (node["operator"], node["rows"]) for node in operators if (node["rows"] or 0) > budget
    ]
