"""Named scenarios used by the examples, tests and experiments.

These are the concrete stories the paper tells:

* :func:`socrates_database` — the ``TEACHES(Socrates, Plato)`` style of
  atomic facts from Section 2.2;
* :func:`jack_the_ripper_database` — the uniqueness-axiom example: we do not
  know the identity of Jack the Ripper, so there is *no* axiom
  ``Jack the Ripper != Benjamin D'Israeli``;
* :func:`employee_intro_scenario` — a small fixed instance of the
  employee/department/manager query from the introduction, together with the
  paper's example query
  ``(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)``;
* :func:`intro_query` — that query by itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.parser import parse_query
from repro.logic.queries import Query
from repro.logical.database import CWDatabase
from repro.workloads.generators import EMPLOYEE_PREDICATES

__all__ = [
    "socrates_database",
    "jack_the_ripper_database",
    "employee_intro_scenario",
    "intro_query",
    "Scenario",
]


@dataclass(frozen=True)
class Scenario:
    """A bundled database + queries with a human-readable description."""

    name: str
    description: str
    database: CWDatabase
    queries: tuple[Query, ...]

    def __hash__(self) -> int:
        return hash((self.name, self.database))


def socrates_database() -> CWDatabase:
    """Teachers and students, fully specified: the Section 2.2 flavour of facts."""
    constants = ("socrates", "plato", "aristotle", "alexander")
    facts = {
        "TEACHES": [
            ("socrates", "plato"),
            ("plato", "aristotle"),
            ("aristotle", "alexander"),
        ]
    }
    return CWDatabase.from_unknowns(constants, {"TEACHES": 2}, facts)


def jack_the_ripper_database() -> CWDatabase:
    """The paper's uniqueness-axiom example: an unidentified suspect.

    The database records who lived in London and who was a murderer.  All the
    named gentlemen are pairwise distinct, but there is *no* uniqueness axiom
    between ``jack_the_ripper`` and anyone else — we do not know who he was.
    """
    named = ("benjamin_disraeli", "charles_dickens", "john_watson")
    constants = named + ("jack_the_ripper",)
    facts = {
        "LIVED_IN_LONDON": [(person,) for person in constants],
        "MURDERER": [("jack_the_ripper",)],
    }
    unequal = [
        (left, right)
        for index, left in enumerate(named)
        for right in named[index + 1:]
    ]
    return CWDatabase(constants, {"LIVED_IN_LONDON": 1, "MURDERER": 1}, facts, unequal)


def intro_query() -> Query:
    """The introduction's employee-manager query.

    ``(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)`` — "which
    employees are related to which managers through their department".
    """
    return parse_query("(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)")


def employee_intro_scenario() -> Scenario:
    """A small fixed employee database with one null (unknown) manager."""
    employees = ("ada", "boris", "carla")
    departments = ("eng", "sales")
    constants = employees + departments + ("mgr_unknown",)
    facts = {
        "EMP_DEPT": [("ada", "eng"), ("boris", "eng"), ("carla", "sales")],
        "DEPT_MGR": [("eng", "ada"), ("sales", "mgr_unknown")],
        "EMP_SAL": [("ada", "high"), ("boris", "mid"), ("carla", "mid")],
    }
    known = employees + departments + ("high", "mid")
    unequal = [
        (left, right)
        for index, left in enumerate(known)
        for right in known[index + 1:]
    ]
    database = CWDatabase(
        constants + ("high", "mid"),
        dict(EMPLOYEE_PREDICATES),
        facts,
        unequal,
    )
    queries = (
        intro_query(),
        parse_query("(x) . exists d. EMP_DEPT(x, d) & DEPT_MGR(d, x)"),
        parse_query("(x) . ~DEPT_MGR('sales', x)"),
    )
    return Scenario(
        name="employee-intro",
        description="Employees, departments and managers with one unknown manager (a null value)",
        database=database,
        queries=queries,
    )
