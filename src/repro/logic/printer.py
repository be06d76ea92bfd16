"""Pretty-printer for formulas and queries.

The textual syntax is the one accepted by :mod:`repro.logic.parser`, so
``parse_formula(to_text(phi))`` round-trips structurally (modulo redundant
parentheses).  Grammar sketch::

    forall x y. exists z. (EMP_DEPT(x, z) & DEPT_MGR(z, y)) -> ~(x = y)
    exists2 P/1. forall x. P(x) | ~M(x)

Variables are bare lower-case identifiers, constants are single-quoted
strings, predicates are identifiers applied to parenthesized arguments.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import FormulaError
from repro.logic.formulas import (
    And,
    Atom,
    Bottom,
    Equals,
    Exists,
    ExtensionAtom,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    SecondOrderExists,
    SecondOrderForall,
    Top,
)
from repro.logic.queries import Query
from repro.logic.terms import Constant, Parameter, Term, Variable

__all__ = ["to_text", "query_to_text", "term_to_text"]

# Binding strength, loosest first.  Quantifiers bind their whole scope.
_PRECEDENCE = {
    "iff": 1,
    "implies": 2,
    "or": 3,
    "and": 4,
    "not": 5,
    "atom": 6,
}


def term_to_text(term: Term) -> str:
    """Render a term: variables bare, constants single-quoted, parameters ``$name``."""
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Parameter):
        return f"${term.name}"
    if isinstance(term, Constant):
        escaped = term.name.replace("'", "\\'")
        return f"'{escaped}'"
    raise FormulaError(f"not a term: {term!r}")


def to_text(formula: Formula, term_text: Callable[[Term], str] = term_to_text) -> str:
    """Render *formula* in the concrete query-language syntax.

    *term_text* renders each term, called left to right in reading order;
    the default is :func:`term_to_text`.
    """
    return _render(formula, 0, term_text)


def query_to_text(query: Query, term_text: Callable[[Term], str] = term_to_text) -> str:
    """Render a query as ``(x, y) . formula`` (*term_text* as in :func:`to_text`)."""
    head = ", ".join(v.name for v in query.head)
    return f"({head}) . {to_text(query.formula, term_text)}"


def _parenthesize(text: str, level: int, parent_level: int) -> str:
    return f"({text})" if level < parent_level else text


def _render(formula: Formula, parent_level: int, term_text: Callable[[Term], str]) -> str:
    if isinstance(formula, Top):
        return "true"
    if isinstance(formula, Bottom):
        return "false"
    if isinstance(formula, ExtensionAtom):
        args = ", ".join(term_text(t) for t in formula.args)
        return f"<{type(formula).__name__}>({args})"
    if isinstance(formula, Atom):
        args = ", ".join(term_text(t) for t in formula.args)
        return f"{formula.predicate}({args})"
    if isinstance(formula, Equals):
        text = f"{term_text(formula.left)} = {term_text(formula.right)}"
        return _parenthesize(text, _PRECEDENCE["atom"] - 1, parent_level)
    if isinstance(formula, Not):
        inner = _render(formula.operand, _PRECEDENCE["not"], term_text)
        return f"~{inner}"
    if isinstance(formula, And):
        level = _PRECEDENCE["and"]
        text = " & ".join(_render(op, level + 1, term_text) for op in formula.operands)
        return _parenthesize(text, level, parent_level)
    if isinstance(formula, Or):
        level = _PRECEDENCE["or"]
        text = " | ".join(_render(op, level + 1, term_text) for op in formula.operands)
        return _parenthesize(text, level, parent_level)
    if isinstance(formula, Implies):
        level = _PRECEDENCE["implies"]
        antecedent = _render(formula.antecedent, level + 1, term_text)
        text = f"{antecedent} -> {_render(formula.consequent, level, term_text)}"
        return _parenthesize(text, level, parent_level)
    if isinstance(formula, Iff):
        level = _PRECEDENCE["iff"]
        text = f"{_render(formula.left, level + 1, term_text)} <-> {_render(formula.right, level + 1, term_text)}"
        return _parenthesize(text, level, parent_level)
    if isinstance(formula, (Exists, Forall)):
        keyword = "exists" if isinstance(formula, Exists) else "forall"
        names = " ".join(v.name for v in formula.variables)
        text = f"{keyword} {names}. {_render(formula.body, 1, term_text)}"
        return _parenthesize(text, 1, parent_level)
    if isinstance(formula, (SecondOrderExists, SecondOrderForall)):
        keyword = "exists2" if isinstance(formula, SecondOrderExists) else "forall2"
        text = f"{keyword} {formula.predicate}/{formula.arity}. {_render(formula.body, 1, term_text)}"
        return _parenthesize(text, 1, parent_level)
    raise FormulaError(f"unknown formula node: {formula!r}")
