"""Formula abstract syntax for first- and second-order relational queries.

The paper's queries are expressions ``(x) . phi(x)`` where ``phi`` is a
formula over a relational vocabulary (Section 2.1).  This module defines the
immutable AST used everywhere in the library:

* atomic formulas: :class:`Atom` (a predicate applied to terms) and
  :class:`Equals`;
* the propositional connectives :class:`Not`, :class:`And`, :class:`Or`,
  :class:`Implies`, :class:`Iff`, plus the constants :data:`TOP` and
  :data:`BOTTOM`;
* first-order quantifiers :class:`Exists` and :class:`Forall`, each binding
  one or more variables;
* second-order quantifiers :class:`SecondOrderExists` and
  :class:`SecondOrderForall`, binding a predicate symbol of a fixed arity —
  these are required by the precise simulation of Section 3.2 and by the
  Sigma^k_2 query classes of Theorem 8/9;
* :class:`ExtensionAtom`, an extension point that lets higher layers define
  atoms with bespoke evaluation rules (the approximation algorithm's
  ``alpha_P`` atoms of Lemma 10 are the main client).

Every node is a frozen dataclass: formulas are hashable values and can be
compared structurally, shared freely and used as dictionary keys.  All
connectives are also available through operators (``&``, ``|``, ``~``,
``>>`` for implication) so that tests and examples read naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, TYPE_CHECKING

from repro.errors import FormulaError
from repro.logic.terms import Constant, Term, Variable, is_term

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.physical.database import PhysicalDatabase

__all__ = [
    "Formula",
    "Atom",
    "Equals",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "Forall",
    "SecondOrderExists",
    "SecondOrderForall",
    "ExtensionAtom",
    "Top",
    "Bottom",
    "TOP",
    "BOTTOM",
    "conjoin",
    "disjoin",
    "exists",
    "forall",
    "walk",
]


class Formula:
    """Common base class of all formula nodes.

    The class itself carries no data; it provides operator overloads and a
    small amount of shared behaviour.  Construct concrete subclasses
    directly, or use the helpers :func:`conjoin`, :func:`disjoin`,
    :func:`exists` and :func:`forall`.
    """

    __slots__ = ()

    def __and__(self, other: "Formula") -> "And":
        _require_formula(other)
        return And((self, other))

    def __or__(self, other: "Formula") -> "Or":
        _require_formula(other)
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Implies":
        _require_formula(other)
        return Implies(self, other)

    def children(self) -> tuple["Formula", ...]:
        """Return the immediate sub-formulas of this node (empty for atoms)."""
        return ()


def _require_formula(value: object) -> None:
    if not isinstance(value, Formula):
        raise FormulaError(f"expected a Formula, got {value!r}")


def _require_terms(args: Iterable[object]) -> tuple[Term, ...]:
    terms = tuple(args)
    for arg in terms:
        if not is_term(arg):
            raise FormulaError(f"expected a term (Variable or Constant), got {arg!r}")
    return terms  # type: ignore[return-value]


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    """A predicate symbol applied to terms, e.g. ``TEACHES(Socrates, x)``."""

    predicate: str
    args: tuple[Term, ...]

    def __init__(self, predicate: str, args: Iterable[Term] = ()) -> None:
        if not predicate or not isinstance(predicate, str):
            raise FormulaError(f"predicate name must be a non-empty string, got {predicate!r}")
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "args", _require_terms(args))

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True, slots=True)
class Equals(Formula):
    """The built-in equality atom ``left = right``."""

    left: Term
    right: Term

    def __init__(self, left: Term, right: Term) -> None:
        (checked_left, checked_right) = _require_terms((left, right))
        object.__setattr__(self, "left", checked_left)
        object.__setattr__(self, "right", checked_right)


@dataclass(frozen=True, slots=True)
class Not(Formula):
    """Negation."""

    operand: Formula

    def __init__(self, operand: Formula) -> None:
        _require_formula(operand)
        object.__setattr__(self, "operand", operand)

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)


class _NaryConnective(Formula):
    """Shared implementation of the n-ary connectives ``And`` and ``Or``."""

    __slots__ = ()

    def __init__(self, operands: Iterable[Formula]) -> None:
        ops = tuple(operands)
        if len(ops) < 2:
            raise FormulaError(
                f"{type(self).__name__} needs at least two operands, got {len(ops)}; "
                "use conjoin()/disjoin() to build from arbitrary-length sequences"
            )
        for op in ops:
            _require_formula(op)
        object.__setattr__(self, "operands", ops)

    def children(self) -> tuple[Formula, ...]:
        return self.operands  # type: ignore[attr-defined]


@dataclass(frozen=True, slots=True, init=False)
class And(_NaryConnective):
    """Conjunction of two or more formulas."""

    operands: tuple[Formula, ...]


@dataclass(frozen=True, slots=True, init=False)
class Or(_NaryConnective):
    """Disjunction of two or more formulas."""

    operands: tuple[Formula, ...]


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    """Material implication ``antecedent -> consequent``."""

    antecedent: Formula
    consequent: Formula

    def __init__(self, antecedent: Formula, consequent: Formula) -> None:
        _require_formula(antecedent)
        _require_formula(consequent)
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "consequent", consequent)

    def children(self) -> tuple[Formula, ...]:
        return (self.antecedent, self.consequent)


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    """Bi-implication ``left <-> right``."""

    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _require_formula(left)
        _require_formula(right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


class _Quantifier(Formula):
    """Shared implementation of the first-order quantifiers."""

    __slots__ = ()

    def __init__(self, variables: Iterable[Variable], body: Formula) -> None:
        bound = tuple(variables)
        if not bound:
            raise FormulaError(f"{type(self).__name__} must bind at least one variable")
        for var in bound:
            if not isinstance(var, Variable):
                raise FormulaError(f"quantifiers bind Variables, got {var!r}")
        if len({v.name for v in bound}) != len(bound):
            raise FormulaError(f"duplicate bound variable in {type(self).__name__}: {bound}")
        _require_formula(body)
        object.__setattr__(self, "variables", bound)
        object.__setattr__(self, "body", body)

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)  # type: ignore[attr-defined]


@dataclass(frozen=True, slots=True, init=False)
class Exists(_Quantifier):
    """First-order existential quantification over one or more variables."""

    variables: tuple[Variable, ...]
    body: Formula


@dataclass(frozen=True, slots=True, init=False)
class Forall(_Quantifier):
    """First-order universal quantification over one or more variables."""

    variables: tuple[Variable, ...]
    body: Formula


class _SecondOrderQuantifier(Formula):
    """Shared implementation of the second-order quantifiers."""

    __slots__ = ()

    def __init__(self, predicate: str, arity: int, body: Formula) -> None:
        if not predicate or not isinstance(predicate, str):
            raise FormulaError(f"predicate name must be a non-empty string, got {predicate!r}")
        if not isinstance(arity, int) or arity < 1:
            raise FormulaError(f"second-order quantifier arity must be a positive int, got {arity!r}")
        _require_formula(body)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "body", body)

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)  # type: ignore[attr-defined]


@dataclass(frozen=True, slots=True, init=False)
class SecondOrderExists(_SecondOrderQuantifier):
    """Existential quantification over a predicate of a fixed arity."""

    predicate: str
    arity: int
    body: Formula


@dataclass(frozen=True, slots=True, init=False)
class SecondOrderForall(_SecondOrderQuantifier):
    """Universal quantification over a predicate of a fixed arity."""

    predicate: str
    arity: int
    body: Formula


@dataclass(frozen=True, slots=True)
class Top(Formula):
    """The always-true formula (empty conjunction)."""


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    """The always-false formula (empty disjunction)."""


TOP = Top()
BOTTOM = Bottom()


class ExtensionAtom(Formula):
    """Base class for atoms whose satisfaction is computed by custom code.

    The Tarskian evaluator (:mod:`repro.physical.evaluator`) treats any
    subclass of this node as an atomic formula and delegates its truth value
    to :meth:`holds`.  Subclasses must behave like atoms: expose ``args``
    (a tuple of terms) so substitution and free-variable analysis work, and
    be immutable/hashable.

    The approximation algorithm's ``alpha_P`` atoms (Lemma 10) are the
    canonical subclass: they test that a tuple *provably* does not belong to
    a stored relation, given the inequality relation ``NE``.
    """

    __slots__ = ()

    #: tuple of terms; subclasses must define this attribute.
    args: tuple[Term, ...]

    #: The stored predicate ``P`` whose *provable absence* the atom asserts
    #: (``alpha_P``).  The algebra compiler knows that one meaning and reads
    #: it here; a subclass that does not define it can only be evaluated by
    #: the Tarskian evaluator, through :meth:`holds`.
    predicate: str

    def holds(
        self,
        database: "PhysicalDatabase",
        values: tuple[object, ...],
        relations: Mapping[str, frozenset[tuple]] = {},
    ) -> bool:
        """Return the truth value of the atom for already-evaluated arguments.

        ``values`` contains the domain elements the atom's terms evaluate to
        under the current variable assignment, in the same order as
        ``self.args``.  ``relations`` maps the predicate names bound by an
        enclosing second-order quantifier to their candidate relations; a
        subclass that reads stored relations reads a bound one from there
        instead (Theorem 11's induction case).  It is never mutated.
        """
        raise NotImplementedError

    def with_args(self, args: tuple[Term, ...]) -> "ExtensionAtom":
        """Return a copy of the atom with its argument terms replaced."""
        raise NotImplementedError


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Conjunction of an arbitrary number of formulas.

    The empty conjunction is :data:`TOP`; a single formula is returned
    unchanged; otherwise an :class:`And` node is produced.
    """
    items = tuple(formulas)
    if not items:
        return TOP
    if len(items) == 1:
        return items[0]
    return And(items)


def disjoin(formulas: Iterable[Formula]) -> Formula:
    """Disjunction of an arbitrary number of formulas (empty = :data:`BOTTOM`)."""
    items = tuple(formulas)
    if not items:
        return BOTTOM
    if len(items) == 1:
        return items[0]
    return Or(items)


def exists(variables: Iterable[Variable], body: Formula) -> Formula:
    """Existentially quantify *variables* over *body* (no-op for empty list)."""
    bound = tuple(variables)
    if not bound:
        return body
    return Exists(bound, body)


def forall(variables: Iterable[Variable], body: Formula) -> Formula:
    """Universally quantify *variables* over *body* (no-op for empty list)."""
    bound = tuple(variables)
    if not bound:
        return body
    return Forall(bound, body)


def walk(formula: Formula) -> Iterator[Formula]:
    """Yield *formula* and every sub-formula, depth first, pre-order."""
    _require_formula(formula)
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


# Convenience constructors used pervasively by tests and examples.

def _atom_of_constants(predicate: str, names: Iterable[str]) -> Atom:
    return Atom(predicate, tuple(Constant(name) for name in names))


Atom.of_constants = staticmethod(_atom_of_constants)  # type: ignore[attr-defined]
