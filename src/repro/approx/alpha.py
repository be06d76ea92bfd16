"""The provable-absence atoms ``alpha_P`` of Lemma 10.

The approximation algorithm replaces every negated atom ``~P(x)`` by a
formula ``alpha_P(x)`` whose extension is the set of tuples that *provably*
do not belong to ``P``:

    { c : c disagrees with d, for every d in I(P) }

where two tuples ``c`` and ``d`` *disagree* (with respect to the theory) when
the conjunction of the uniqueness axioms together with ``c = d`` is
unsatisfiable — equivalently (Lemma 10's graph view), when the graph
``G_{c,d}`` whose edges link ``c_i`` to ``d_i`` connects two constants that
carry a uniqueness axiom (an ``NE`` pair).

Two implementations are provided and tested against each other:

* :func:`disagree` — the direct decision procedure (union-find over
  ``G_{c,d}``), used by :class:`AlphaAtom` for tuple-at-a-time evaluation
  and by Theorem 14's polynomial-time argument;
* :func:`build_alpha_formula` — the literal first-order formula of
  Lemma 10, of length ``O(k log k)``, built from the succinct connectivity
  formula ``beta_k`` (the "divide the path in half" trick with a single
  occurrence of the edge relation).  Evaluating this formula on ``Ph2(LB)``
  must agree with the direct procedure; it also demonstrates that the whole
  approximation is expressible to a standard relational engine.

**Oracle and serving path.**  Everything in this module is the *definition*:
the Tarskian evaluator reaches :meth:`AlphaAtom.holds` once per candidate
tuple (one union-find per stored tuple of ``P``), which is what the tests,
the benchmarks' correctness gates and ``engine="tarski"`` run.  The serving
path (``engine="algebra"`` and whatever ``"auto"`` sends there) never calls
it: :mod:`repro.physical.compiler` translates an :class:`AlphaAtom` into
set-at-a-time plan operators — an anti-join of the candidates against the
stored tuples that may coincide with them, found by joining ``P`` with the
derived "possibly equal" relation column by column — and only reads the
atom's ``predicate`` and ``args``.  ``tests/property/test_prop_negation.py``
holds the two (and :func:`build_alpha_formula`) equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

from repro.errors import FormulaError
from repro.logic.formulas import (
    Atom,
    Equals,
    ExtensionAtom,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    conjoin,
    disjoin,
    exists,
    forall,
)
from repro.logic.terms import Term, Variable
from repro.logic.vocabulary import NE_PREDICATE

if TYPE_CHECKING:  # pragma: no cover
    from repro.physical.database import PhysicalDatabase

__all__ = ["disagree", "AlphaAtom", "build_alpha_formula", "connectivity_formula"]


class _UnionFind:
    """Minimal union-find over hashable items (path compression, union by size)."""

    def __init__(self) -> None:
        self._parent: dict[object, object] = {}
        self._size: dict[object, int] = {}

    def find(self, item: object) -> object:
        parent = self._parent.setdefault(item, item)
        self._size.setdefault(item, 1)
        if parent != item:
            root = self.find(parent)
            self._parent[item] = root
            return root
        return item

    def union(self, left: object, right: object) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return
        if self._size[left_root] < self._size[right_root]:
            left_root, right_root = right_root, left_root
        self._parent[right_root] = left_root
        self._size[left_root] += self._size[right_root]

    def connected(self, left: object, right: object) -> bool:
        return self.find(left) == self.find(right)


def disagree(c: Sequence[str], d: Sequence[str], ne_pairs) -> bool:
    """Decide whether tuples *c* and *d* disagree with respect to the theory.

    ``ne_pairs`` is anything supporting ``(a, b) in ne_pairs`` — typically the
    (possibly virtual) ``NE`` relation of ``Ph2(LB)``.  Following Lemma 10,
    build the graph ``G_{c,d}`` with an edge between ``c_i`` and ``d_i`` for
    every position ``i`` and check whether some two constants in the same
    connected component are a declared-unequal pair.
    """
    if len(c) != len(d):
        raise FormulaError(f"disagree() needs tuples of equal length, got {len(c)} and {len(d)}")
    union_find = _UnionFind()
    vertices = set(c) | set(d)
    for left, right in zip(c, d):
        union_find.union(left, right)
    items = sorted(vertices)
    for index, left in enumerate(items):
        for right in items[index + 1:]:
            if union_find.connected(left, right) and ((left, right) in ne_pairs or (right, left) in ne_pairs):
                return True
    return False


@dataclass(frozen=True)
class AlphaAtom(ExtensionAtom):
    """The atom ``alpha_P(args)``: *args* provably does not belong to ``P``.

    Evaluated against a physical database that stores both ``P`` and the
    inequality relation ``NE`` (i.e. ``Ph2(LB)``).  The truth value for a
    tuple of values ``c`` is: for every stored tuple ``d`` of ``P``, ``c``
    and ``d`` disagree.
    """

    predicate: str
    args: tuple[Term, ...]

    def __init__(self, predicate: str, args: Sequence[Term]) -> None:
        if not predicate:
            raise FormulaError("AlphaAtom needs a predicate name")
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "args", tuple(args))

    def holds(self, database: "PhysicalDatabase", values: tuple[object, ...]) -> bool:
        ne_relation = database.relation(NE_PREDICATE) if database.has_relation(NE_PREDICATE) else frozenset()
        stored = database.relation(self.predicate)
        return all(disagree(values, row, ne_relation) for row in stored)

    def holds_with(
        self,
        database: "PhysicalDatabase",
        values: tuple[object, ...],
        relation_overrides: dict[str, frozenset[tuple]],
    ) -> bool:
        # A predicate bound by an enclosing second-order quantifier is read
        # from its candidate relation, not from storage (Theorem 11's
        # induction adds the candidate tuples as atomic facts).
        if self.predicate in relation_overrides:
            stored = relation_overrides[self.predicate]
        else:
            stored = database.relation(self.predicate)
        if NE_PREDICATE in relation_overrides:
            ne_relation = relation_overrides[NE_PREDICATE]
        elif database.has_relation(NE_PREDICATE):
            ne_relation = database.relation(NE_PREDICATE)
        else:
            ne_relation = frozenset()
        return all(disagree(values, row, ne_relation) for row in stored)

    def with_args(self, args: tuple[Term, ...]) -> "AlphaAtom":
        return AlphaAtom(self.predicate, args)


def connectivity_formula(k: int, edge_formula_builder, left: Variable, right: Variable, used_names: set[str]) -> Formula:
    """The succinct "connected by a path of length <= 2^ceil(log2 k)" formula.

    ``edge_formula_builder(u, v)`` must return a formula expressing that
    ``{u, v}`` is an (undirected) edge of the graph.  The construction is the
    classical halving trick attributed in the paper to [St77]: connectivity
    within ``m`` steps is expressed with a single recursive occurrence by
    universally quantifying over the two half-paths, giving a formula of
    length ``O(k log k)`` overall.
    """
    if k < 1:
        raise FormulaError("connectivity_formula needs k >= 1")

    steps = 1
    while steps < k:
        steps *= 2

    def conn(m: int, u: Variable, v: Variable) -> Formula:
        base = Or((Equals(u, v), edge_formula_builder(u, v)))
        if m <= 1:
            return base
        midpoint = _fresh(used_names, "w")
        s = _fresh(used_names, "s")
        t = _fresh(used_names, "t")
        half = conn(m // 2, s, t)
        pair_selector = Or(
            (
                conjoin([Equals(s, u), Equals(t, midpoint)]),
                conjoin([Equals(s, midpoint), Equals(t, v)]),
            )
        )
        return exists((midpoint,), forall((s, t), Implies(pair_selector, half)))

    return conn(steps, left, right)


def _fresh(used: set[str], stem: str) -> Variable:
    index = 0
    name = stem
    while name in used:
        name = f"{stem}{index}"
        index += 1
    used.add(name)
    return Variable(name)


def build_alpha_formula(predicate: str, arity: int, args: Sequence[Term] | None = None) -> Formula:
    """Construct the first-order formula ``alpha_P`` of Lemma 10.

    The formula has the free variables ``args`` (default ``x1 .. xk``) and is
    stated over the vocabulary ``{P, NE, =}``:

        alpha_P(x)  =  forall y1..yk. P(y) ->
                         exists u v. NE(u, v) & gamma_{x,y}(u, v)

    where ``gamma_{x,y}`` is the connectivity formula over the graph whose
    edges are the pairs ``{x_i, y_i}``.  A tuple ``c`` satisfies the formula
    over ``Ph2(LB)`` iff ``c`` disagrees with every stored ``P``-tuple, i.e.
    iff :class:`AlphaAtom` holds — the property Lemma 10 asserts.
    """
    if arity < 1:
        raise FormulaError("build_alpha_formula needs a positive arity")
    if args is None:
        xs: tuple[Term, ...] = tuple(Variable(f"x{i + 1}") for i in range(arity))
    else:
        xs = tuple(args)
        if len(xs) != arity:
            raise FormulaError(f"expected {arity} argument terms, got {len(xs)}")

    used_names = {term.name for term in xs if isinstance(term, Variable)}
    ys = tuple(_fresh(used_names, f"y{i + 1}") for i in range(arity))
    u = _fresh(used_names, "u")
    v = _fresh(used_names, "v")

    def edge(a: Variable, b: Variable) -> Formula:
        cases = []
        for x_term, y_term in zip(xs, ys):
            cases.append(conjoin([Equals(a, x_term), Equals(b, y_term)]))
            cases.append(conjoin([Equals(a, y_term), Equals(b, x_term)]))
        return disjoin(cases)

    gamma = connectivity_formula(2 * arity, edge, u, v, used_names)
    body = Implies(
        Atom(predicate, ys),
        exists((u, v), conjoin([Atom(NE_PREDICATE, (u, v)), gamma])),
    )
    return Forall(ys, body)
