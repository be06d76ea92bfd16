"""Theorem 14 at serving scale for the positive shapes: work bounded by what a plan reads and returns.

The companion of ``test_negation_at_scale.py`` for E21's positive shapes
(point lookups and joins, the sweep, the bulk joins, ``equality_link`` and
``scan_dept``), on ``employee_database(3000, seed=21)`` with E21's guard
atoms (one on a point shape, two on a bulk shape):

* no operator emits more than twice the rows the plan's leaves read plus
  the rows it returns;
* the operator rows summed over the whole plan are pinned at their counts,
  so a plan that starts doing more work (a reduction of a build side the
  join already probes per key, a fan-out of duplicate probe rows) fails
  here first.

The answers are checked against their closed form: every employee works in
exactly one department, which has one manager, so each shape is a lookup,
"same department as", or a copy of the facts.
"""

from __future__ import annotations

import pytest

from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest
from repro.workloads.generators import employee_database
from repro.workloads.traffic import SWEEP_TEMPLATE

GUARD = " & EMP_SAL('emp1', '{salary}')"
GUARDS = GUARD + " & EMP_DEPT('emp2', '{department}')"
SHAPES = {
    "lookup_dept": "(x) . EMP_DEPT('emp7', x)" + GUARD,
    "lookup_sal": "(x) . EMP_SAL('emp7', x)" + GUARD,
    "lookup_mgr": "(x) . DEPT_MGR('{department7}', x)" + GUARD,
    "join_mgr": "(m) . exists d. EMP_DEPT('emp7', d) & DEPT_MGR(d, m)" + GUARD,
    "full_copy": "(x) . exists y. EMP_DEPT('emp7', y) & DEPT_MGR(y, x)" + GUARD,
    "sweep": SWEEP_TEMPLATE.replace("$e", "'emp7'") + GUARD,
    "join_peers": "(y) . exists d. EMP_DEPT('emp7', d) & EMP_DEPT(y, d)" + GUARDS,
    "co_occurrence": "(x, y) . exists z. EMP_DEPT(x, z) & EMP_DEPT(y, z)" + GUARDS,
    "co_salary": "(x, y, s) . exists z. EMP_DEPT(x, z) & EMP_DEPT(y, z) & EMP_SAL(y, s)" + GUARDS,
    "chain4": (
        "(x0, x4) . exists x1 x2 x3. EMP_DEPT(x0, x1) & EMP_DEPT(x2, x1) & EMP_DEPT(x2, x3)"
        " & EMP_DEPT(x4, x3)" + GUARDS
    ),
    "equality_link": "(x, y) . (exists z. EMP_DEPT(x, z)) & x = y" + GUARDS,
    "scan_dept": "(x, y) . EMP_DEPT(x, y)" + GUARDS,
}

#: Operator rows summed over every node of each shape's plan.
OPERATOR_ROWS = {
    "lookup_dept": 6,
    "lookup_sal": 6,
    "lookup_mgr": 6,
    "join_mgr": 8,
    "full_copy": 8,
    "sweep": 27,
    "join_peers": 19,
    "co_occurrence": 42_005,
    "co_salary": 57_005,
    "chain4": 96_005,
    "equality_link": 26_264,
    "scan_dept": 9_005,
}


def _closed_form(database, shape: str) -> frozenset[tuple[str, ...]]:
    department = dict(database.facts_for("EMP_DEPT"))
    salary = dict(database.facts_for("EMP_SAL"))
    manager = dict(database.facts_for("DEPT_MGR"))
    mine = department["emp7"]
    point = {
        "lookup_dept": mine,
        "lookup_sal": salary["emp7"],
        "lookup_mgr": manager[mine],
        "join_mgr": manager[mine],
        "full_copy": manager[mine],
    }
    if shape in point:
        return frozenset({(point[shape],)})
    if shape == "sweep":
        return frozenset((manager[mine], salary[y]) for y, d in department.items() if d == mine and y in salary)
    if shape == "join_peers":
        return frozenset((y,) for y, d in department.items() if d == mine)
    if shape == "equality_link":
        return frozenset((x, x) for x in department)
    if shape == "scan_dept":
        return frozenset(database.facts_for("EMP_DEPT"))
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
    department = dict(large_database.facts_for("EMP_DEPT"))
    constants = {
        "salary": dict(large_database.facts_for("EMP_SAL"))["emp1"],
        "department": department["emp2"],
        "department7": department["emp7"],
    }
    service = QueryService(answer_cache_capacity=0)
    service.register("emp", large_database)
    try:
        results = {}
        for shape, text in SHAPES.items():
            request = QueryRequest("emp", text.format(**constants), "approx", profile=True)
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
