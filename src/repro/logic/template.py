"""Parameterized query templates and their binding.

A *template* is an ordinary :class:`~repro.logic.queries.Query` whose
formula mentions :class:`~repro.logic.terms.Parameter` terms (``$name`` in
the textual syntax).  Parameters type as constants, so a template can be
parsed, classified, decomposed and compiled exactly once; binding then
substitutes real :class:`~repro.logic.terms.Constant` symbols for the
placeholders **without re-parsing** — the expression-side work (Vardi's
expression complexity) is paid per template, the data-side work per binding.

:func:`lift_constants` runs the other way: it turns an ordinary ad-hoc query
into its *shape* (every constant replaced by a parameter) plus the values,
so ad-hoc requests that differ only in constants share one template plan.

Two binding levels exist:

* :func:`bind_query` — AST-level substitution, used by every evaluation
  route (it produces a parameter-free query any engine can run);
* :func:`repro.physical.plan.substitute_plan_parameters` — plan-level
  substitution, the prepared fast path that also skips compile + optimize.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from repro.errors import FormulaError, UnboundParameterError
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
from repro.logic.printer import query_to_text, term_to_text
from repro.logic.queries import Query
from repro.logic.terms import Constant, Parameter, Term

__all__ = [
    "formula_parameters",
    "query_parameters",
    "has_parameters",
    "bind_formula",
    "bind_query",
    "lift_constants",
    "lifted_text",
    "check_bound",
]


def _terms_in(formula: Formula) -> Iterator[Term]:
    if isinstance(formula, (Atom, ExtensionAtom)):
        yield from formula.args
    elif isinstance(formula, Equals):
        yield formula.left
        yield formula.right
    for child in formula.children():
        yield from _terms_in(child)


def formula_parameters(formula: Formula) -> tuple[str, ...]:
    """The parameter names mentioned by *formula*, sorted and deduplicated."""
    return tuple(sorted({term.name for term in _terms_in(formula) if isinstance(term, Parameter)}))


def query_parameters(query: Query) -> tuple[str, ...]:
    """The parameter names a binding for *query* must supply."""
    return formula_parameters(query.formula)


def has_parameters(query: Query) -> bool:
    """Whether *query* is a template (mentions at least one parameter)."""
    return any(isinstance(term, Parameter) for term in _terms_in(query.formula))


def _check_binding(parameters: tuple[str, ...], values: Mapping[str, str]) -> dict[str, str]:
    missing = [name for name in parameters if name not in values]
    if missing:
        raise UnboundParameterError(
            "missing value(s) for parameter(s): " + ", ".join(f"${name}" for name in missing)
        )
    extra = sorted(set(values) - set(parameters))
    if extra:
        raise UnboundParameterError(
            "binding names parameter(s) the template does not mention: "
            + ", ".join(f"${name}" for name in extra)
        )
    for name, value in values.items():
        if not isinstance(value, str) or not value:
            raise FormulaError(
                f"parameter ${name} must be bound to a non-empty constant name, got {value!r}"
            )
    return dict(values)


def _bind_term(term: Term, values: Mapping[str, str]) -> Term:
    if isinstance(term, Parameter):
        return Constant(values[term.name])
    return term


def bind_formula(formula: Formula, values: Mapping[str, str]) -> Formula:
    """Substitute constants for every parameter of *formula*.

    *values* must bind exactly the parameters the formula mentions (no
    missing, no extra names) — a silent partial binding would surface later
    as a confusing evaluation error far from its cause.
    """
    _check_binding(formula_parameters(formula), values)
    return _map_terms(formula, lambda term: _bind_term(term, values))


def _map_terms(formula: Formula, mapping: Callable[[Term], Term]) -> Formula:
    """*formula* with every term replaced by ``mapping(term)``, left to right."""
    if isinstance(formula, ExtensionAtom):
        return formula.with_args(tuple(mapping(t) for t in formula.args))
    if isinstance(formula, Atom):
        return Atom(formula.predicate, tuple(mapping(t) for t in formula.args))
    if isinstance(formula, Equals):
        return Equals(mapping(formula.left), mapping(formula.right))
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return Not(_map_terms(formula.operand, mapping))
    if isinstance(formula, And):
        return And(tuple(_map_terms(op, mapping) for op in formula.operands))
    if isinstance(formula, Or):
        return Or(tuple(_map_terms(op, mapping) for op in formula.operands))
    if isinstance(formula, Implies):
        return Implies(_map_terms(formula.antecedent, mapping), _map_terms(formula.consequent, mapping))
    if isinstance(formula, Iff):
        return Iff(_map_terms(formula.left, mapping), _map_terms(formula.right, mapping))
    if isinstance(formula, (Exists, Forall)):
        # Parameters are constants, never bound variables: no capture risk.
        return type(formula)(formula.variables, _map_terms(formula.body, mapping))
    if isinstance(formula, (SecondOrderExists, SecondOrderForall)):
        return type(formula)(formula.predicate, formula.arity, _map_terms(formula.body, mapping))
    raise FormulaError(f"cannot map the terms of formula node {type(formula).__name__}")


def bind_query(query: Query, values: Mapping[str, str]) -> Query:
    """Bind a template to concrete constants; the inverse check of `prepare`.

    Returns a parameter-free query with the same head.  The binding must be
    exact (see :func:`bind_formula`); binding a parameter-free query with an
    empty mapping is the identity.
    """
    if not has_parameters(query):
        _check_binding((), values)
        return query
    return query.with_formula(bind_formula(query.formula, values))


class _ConstantNumbers:
    """Numbers a query's distinct constant symbols in order of first occurrence.

    One instance per walk; :func:`lift_constants` and :func:`lifted_text`
    walk the terms in the same reading order, so they number alike.
    """

    def __init__(self, query: Query) -> None:
        self._query = query
        self.numbers: dict[str, str] = {}

    def number(self, constant: Constant) -> str:
        if isinstance(constant, Parameter):
            check_bound(self._query)  # raises: only a bound query has a shape
        number = self.numbers.get(constant.name)
        if number is None:
            number = self.numbers[constant.name] = str(len(self.numbers) + 1)
        return number

    def lift(self, term: Term) -> Term:
        return Parameter(self.number(term)) if isinstance(term, Constant) else term

    def text(self, term: Term) -> str:
        return f"${self.number(term)}" if isinstance(term, Constant) else term_to_text(term)

    def values(self) -> dict[str, str]:
        return {number: name for name, number in self.numbers.items()}


def lift_constants(query: Query) -> tuple[Query, dict[str, str]]:
    """Split a parameter-free query into its *shape* and its constants.

    Returns ``(template, values)`` with ``bind_query(template, values) ==
    query``: every distinct constant symbol becomes one parameter, numbered
    ``$1``, ``$2``, ... in order of first occurrence, so ``'a' = 'a'`` lifts
    to ``$1 = $1`` and ``'a' = 'b'`` to ``$1 = $2`` — two different shapes.
    A digit-led name is outside the parser's ``$name`` syntax, so a lifted
    parameter never collides with one a user wrote.  A query that already
    mentions parameters is refused exactly as evaluation would refuse it.
    """
    numbers = _ConstantNumbers(query)
    template = query.with_formula(_map_terms(query.formula, numbers.lift))
    return template, numbers.values()


def lifted_text(query: Query) -> tuple[str, dict[str, str]]:
    """``query_to_text`` of :func:`lift_constants`'s template, plus its values.

    Renders the shape without building the template — the serving layer keys
    its plan cache on this text and only needs the template on a miss.
    """
    numbers = _ConstantNumbers(query)
    return query_to_text(query, numbers.text), numbers.values()


def check_bound(query: Query) -> None:
    """Raise :class:`UnboundParameterError` if *query* still has parameters.

    Evaluation engines call this before running: a parameter has no value,
    so evaluating around one could only produce silently wrong answers.
    """
    names = query_parameters(query)
    if names:
        raise UnboundParameterError(
            "query mentions unbound parameter(s) "
            + ", ".join(f"${name}" for name in names)
            + " — bind them (prepared execute, --param) before evaluation"
        )
