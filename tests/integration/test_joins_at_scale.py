"""Theorem 14 at serving scale for the join shapes: work bounded by what a plan reads and returns.

The companion of ``test_negation_at_scale.py`` for E21's positive join
shapes, on ``employee_database(3000, seed=21)`` with E21's two guard atoms:

* no operator emits more than twice the rows the plan's leaves read plus
  the rows it returns;
* the operator rows summed over the whole plan are pinned at their counts,
  so a plan that starts doing more work (a reduction of a build side the
  join already probes per key, a fan-out of duplicate probe rows) fails
  here first.

The answers are checked against their closed form: every employee works in
exactly one department, so each shape is "same department as" over the
facts.
"""

from __future__ import annotations

import pytest

from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest
from repro.workloads.generators import employee_database

GUARDS = " & EMP_SAL('emp1', '{salary}') & EMP_DEPT('emp2', '{department}')"
SHAPES = {
    "join_peers": "(y) . exists d. EMP_DEPT('emp7', d) & EMP_DEPT(y, d)",
    "co_occurrence": "(x, y) . exists z. EMP_DEPT(x, z) & EMP_DEPT(y, z)",
    "co_salary": "(x, y, s) . exists z. EMP_DEPT(x, z) & EMP_DEPT(y, z) & EMP_SAL(y, s)",
    "chain4": (
        "(x0, x4) . exists x1 x2 x3. EMP_DEPT(x0, x1) & EMP_DEPT(x2, x1) & EMP_DEPT(x2, x3)"
        " & EMP_DEPT(x4, x3)"
    ),
}

#: Operator rows summed over every node of each shape's plan.
OPERATOR_ROWS = {"join_peers": 19, "co_occurrence": 42_005, "co_salary": 57_005, "chain4": 96_005}


def _closed_form(database, shape: str) -> frozenset[tuple[str, ...]]:
    department = dict(database.facts_for("EMP_DEPT"))
    salary = dict(database.facts_for("EMP_SAL"))
    if shape == "join_peers":
        return frozenset((y,) for y, d in department.items() if d == department["emp7"])
    members: dict[str, list[str]] = {}
    for employee, d in department.items():
        members.setdefault(d, []).append(employee)
    pairs = [(x, y) for group in members.values() for x in group for y in group]
    if shape == "co_salary":
        return frozenset((x, y, salary[y]) for x, y in pairs if y in salary)
    return frozenset(pairs)


def _operators(node):
    yield node
    for child in node["children"]:
        yield from _operators(child)


@pytest.fixture(scope="module")
def large_database():
    return employee_database(3000, seed=21)


@pytest.fixture(scope="module")
def served(large_database):
    """``shape -> (answers, operators)`` of one served request per shape."""
    guards = GUARDS.format(
        salary=dict(large_database.facts_for("EMP_SAL"))["emp1"],
        department=dict(large_database.facts_for("EMP_DEPT"))["emp2"],
    )
    service = QueryService(answer_cache_capacity=0)
    service.register("emp", large_database)
    try:
        results = {}
        for shape, text in SHAPES.items():
            request = QueryRequest("emp", text + guards, "approx", "auto", profile=True)
            response = service.execute(request)
            results[shape] = (
                response.answer_set("approximate"),
                list(_operators(response.profile["operators"])),
            )
        return results
    finally:
        service.close()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_answers_are_the_closed_form(large_database, served, shape):
    answers, __ = served[shape]
    assert answers == _closed_form(large_database, shape)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_no_operator_outgrows_what_the_plan_reads_and_returns(served, shape):
    answers, operators = served[shape]
    read = sum(node["rows"] or 0 for node in operators if not node["children"])
    budget = 2 * (read + len(answers))
    assert max(node["rows"] or 0 for node in operators) <= budget, [
        (node["operator"], node["rows"]) for node in operators if (node["rows"] or 0) > budget
    ]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_operator_rows_are_pinned(served, shape):
    __, operators = served[shape]
    assert sum(node["rows"] or 0 for node in operators) == OPERATOR_ROWS[shape]
