"""Shared fixtures for the test suite.

The fixtures are deliberately small: exact certain-answer evaluation is
exponential in the number of constants, and many tests cross-check the
approximation, the simulation and the exact evaluator against each other, so
databases stay in the 2-6 constant range.
"""

from __future__ import annotations

import pytest

from repro.logic.parser import parse_query
from repro.logic.vocabulary import Vocabulary
from repro.logical.database import CWDatabase
from repro.physical.database import PhysicalDatabase
from repro.physical.indexes import DatabaseIndexes


@pytest.fixture
def teaches_vocabulary() -> Vocabulary:
    """Vocabulary of the Socrates/Plato teaching examples."""
    return Vocabulary(("socrates", "plato", "aristotle"), {"TEACHES": 2, "PHILOSOPHER": 1})


@pytest.fixture
def teaches_physical(teaches_vocabulary) -> PhysicalDatabase:
    """A small physical database over the teaching vocabulary."""
    return PhysicalDatabase(
        vocabulary=teaches_vocabulary,
        domain={"socrates", "plato", "aristotle"},
        constants={"socrates": "socrates", "plato": "plato", "aristotle": "aristotle"},
        relations={
            "TEACHES": {("socrates", "plato"), ("plato", "aristotle")},
            "PHILOSOPHER": {("socrates",), ("plato",), ("aristotle",)},
        },
    )


@pytest.fixture
def teaches_cw() -> CWDatabase:
    """Fully specified CW database: the same facts as ``teaches_physical``."""
    db = CWDatabase(
        constants=("socrates", "plato", "aristotle"),
        predicates={"TEACHES": 2, "PHILOSOPHER": 1},
        facts={
            "TEACHES": [("socrates", "plato"), ("plato", "aristotle")],
            "PHILOSOPHER": [("socrates",), ("plato",), ("aristotle",)],
        },
    )
    return db.fully_specified()


@pytest.fixture
def ripper_cw() -> CWDatabase:
    """A CW database with one unknown value (no uniqueness axioms for 'jack')."""
    return CWDatabase(
        constants=("disraeli", "dickens", "jack"),
        predicates={"LONDONER": 1, "MURDERER": 1},
        facts={
            "LONDONER": [("disraeli",), ("dickens",), ("jack",)],
            "MURDERER": [("jack",)],
        },
        unequal=[("disraeli", "dickens")],
    )


@pytest.fixture
def tiny_unknown_cw() -> CWDatabase:
    """Two constants, one unary fact, no uniqueness axioms — the smallest unknown-value case."""
    return CWDatabase(
        constants=("a", "b"),
        predicates={"P": 1},
        facts={"P": [("a",)]},
        unequal=[],
    )


@pytest.fixture
def simple_queries():
    """A few representative parsed queries over the teaching vocabulary."""
    return {
        "join": parse_query("(x, y) . exists z. TEACHES(x, z) & TEACHES(z, y)"),
        "negation": parse_query("(x) . PHILOSOPHER(x) & ~TEACHES('socrates', x)"),
        "boolean": parse_query("exists x. TEACHES(x, 'plato')"),
        "universal": parse_query("(x) . forall y. TEACHES(x, y) -> PHILOSOPHER(y)"),
    }


@pytest.fixture
def index_calls(monkeypatch) -> list:
    """Every call made on a ``DatabaseIndexes``, in order, as ``(method, args,
    kwargs)``: the access paths an execution took.  Clear it between runs."""
    calls: list = []

    def recorder(name, method):
        def recorded(self, *args, **kwargs):
            calls.append((name, args, sorted(kwargs.items())))
            return method(self, *args, **kwargs)

        return recorded

    for name, method in list(vars(DatabaseIndexes).items()):
        if callable(method) and not name.startswith("_"):
            monkeypatch.setattr(DatabaseIndexes, name, recorder(name, method))
    return calls
