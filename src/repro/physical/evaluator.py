"""Tarskian evaluation of queries over physical databases.

This is the classical semantic notion of truth the paper attributes to the
"database as interpretation" view (Section 1): the answer to a query
``(x) . phi(x)`` over a physical database ``PB = (L, I)`` is the set of
tuples ``d`` over the domain such that ``I`` satisfies ``phi(d)``
(Section 2.1).

The evaluator walks the formula with an explicit variable assignment and a
*relation assignment*: the candidate relations of the predicates bound by
enclosing second-order quantifiers (empty for a first-order formula).  Free
predicate names read the database's stored relations.

First-order quantifiers conceptually range over the whole (finite) domain,
but the enumeration is **bounded** wherever that is provably lossless: a
quantified variable that must satisfy a positive atom (in a conjunctive
position) can only take values stored in the matching relation column, so
only those are tried — the classic semi-naive restriction.  The candidate
sets are *necessary* conditions derived per variable (atoms intersect
across conjunctions, union across disjunctions, nothing through negations),
so the bounded search returns exactly the unbounded answer; variables with
no such restriction still range over the full domain, which keeps e.g.
``(x) . ~P(x)`` ranging over elements mentioned nowhere.

A second-order quantifier ranges over all relations of its arity on the
domain, of which there are ``2^(|D|^arity)``.  The precise simulation of
Section 3.2 and the Sigma^k_2 classes of Theorems 8/9 need it; it is only
feasible for tiny instances, which is exactly the point the paper makes
about the cost of unknown values.  To keep accidental blow-ups from hanging
a test run, the evaluator refuses to enumerate more than ``max_relations``
candidate relations per quantifier (default ``2**16``) and raises
:class:`~repro.errors.CapacityError` instead.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import CapacityError, DatabaseError, EvaluationError
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
from repro.logic.terms import Constant, Term, Variable
from repro.physical.database import PhysicalDatabase
from repro.physical.relation import Relation

__all__ = [
    "evaluate_term",
    "satisfies",
    "evaluate_query",
    "evaluate_sentence",
    "candidate_values",
    "enumerate_relations",
    "DEFAULT_MAX_RELATIONS",
]

#: Default cap on the number of candidate relations per second-order quantifier.
DEFAULT_MAX_RELATIONS = 2**16


def enumerate_relations(domain: Iterable, arity: int, max_relations: int = DEFAULT_MAX_RELATIONS) -> Iterator[frozenset[tuple]]:
    """Yield every relation of the given arity over *domain*.

    Relations are produced in increasing cardinality (the empty relation
    first), which lets existential searches succeed quickly on sparse
    witnesses.  Raises :class:`CapacityError` when there are more than
    *max_relations* candidate relations.
    """
    elements = sorted(domain, key=repr)
    all_tuples = list(product(elements, repeat=arity))
    count = 2 ** len(all_tuples)
    if count > max_relations:
        raise CapacityError(
            f"enumerating relations of arity {arity} over a domain of size {len(elements)} "
            f"needs {count} candidates, above the cap of {max_relations}"
        )
    subsets = chain.from_iterable(combinations(all_tuples, size) for size in range(len(all_tuples) + 1))
    for subset in subsets:
        yield frozenset(subset)


def evaluate_term(database: PhysicalDatabase, term: Term, assignment: Mapping[Variable, object]) -> object:
    """Return the domain element denoted by *term* under *assignment*."""
    if isinstance(term, Constant):
        return database.constant_value(term.name)
    if isinstance(term, Variable):
        try:
            return assignment[term]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name!r}") from None
    raise EvaluationError(f"not a term: {term!r}")


def satisfies(
    database: PhysicalDatabase,
    formula: Formula,
    assignment: Mapping[Variable, object] | None = None,
    relations: Mapping[str, frozenset[tuple]] | None = None,
    max_relations: int = DEFAULT_MAX_RELATIONS,
) -> bool:
    """Return ``True`` when *database* satisfies *formula* under *assignment*.

    *relations* interprets predicate names bound by an enclosing
    second-order quantifier; *max_relations* caps the candidates tried per
    second-order quantifier in *formula*.
    """
    return _satisfies(database, formula, dict(assignment or {}), dict(relations or {}), max_relations, {})


def _satisfies(
    database: PhysicalDatabase,
    formula: Formula,
    assignment: dict[Variable, object],
    relations: dict[str, frozenset[tuple]],
    max_relations: int,
    cache: dict,
) -> bool:
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, ExtensionAtom):
        values = tuple(evaluate_term(database, term, assignment) for term in formula.args)
        return formula.holds(database, values, relations)
    if isinstance(formula, Atom):
        values = tuple(evaluate_term(database, term, assignment) for term in formula.args)
        if formula.predicate in relations:
            return values in relations[formula.predicate]
        return values in database.relation(formula.predicate)
    if isinstance(formula, Equals):
        return evaluate_term(database, formula.left, assignment) == evaluate_term(
            database, formula.right, assignment
        )
    if isinstance(formula, Not):
        return not _satisfies(database, formula.operand, assignment, relations, max_relations, cache)
    if isinstance(formula, And):
        return all(
            _satisfies(database, operand, assignment, relations, max_relations, cache)
            for operand in formula.operands
        )
    if isinstance(formula, Or):
        return any(
            _satisfies(database, operand, assignment, relations, max_relations, cache)
            for operand in formula.operands
        )
    if isinstance(formula, Implies):
        if not _satisfies(database, formula.antecedent, assignment, relations, max_relations, cache):
            return True
        return _satisfies(database, formula.consequent, assignment, relations, max_relations, cache)
    if isinstance(formula, Iff):
        return _satisfies(database, formula.left, assignment, relations, max_relations, cache) == _satisfies(
            database, formula.right, assignment, relations, max_relations, cache
        )
    if isinstance(formula, Exists):
        return _satisfies_quantifier(database, formula, assignment, relations, max_relations, cache, want=True)
    if isinstance(formula, Forall):
        return not _satisfies_quantifier(database, formula, assignment, relations, max_relations, cache, want=False)
    if isinstance(formula, (SecondOrderExists, SecondOrderForall)):
        want = isinstance(formula, SecondOrderExists)
        for candidate in enumerate_relations(database.domain, formula.arity, max_relations):
            extended = dict(relations)
            extended[formula.predicate] = candidate
            if _satisfies(database, formula.body, assignment, extended, max_relations, cache) == want:
                return want
        return not want
    raise EvaluationError(f"unknown formula node: {formula!r}")


def _satisfies_quantifier(
    database: PhysicalDatabase,
    formula: Exists | Forall,
    assignment: dict[Variable, object],
    relations: dict[str, frozenset[tuple]],
    max_relations: int,
    cache: dict,
    want: bool,
) -> bool:
    """Search for an assignment of the bound variables making the body == *want*.

    ``Exists`` asks whether some extension satisfies the body (``want=True``);
    ``Forall`` is evaluated as "no extension falsifies the body"
    (``want=False``), which is why the caller negates the result.

    The existential search only tries each variable's candidate values (see
    :func:`candidate_values`); the universal counterexample search returns
    immediately when some domain value falls outside a variable's candidates,
    since such a value falsifies the body by construction.
    """
    variables = formula.variables
    if want:
        for values in product(*_value_lists(database, formula.body, variables, relations, cache)):
            extended = dict(assignment)
            extended.update(zip(variables, values))
            if _satisfies(database, formula.body, extended, relations, max_relations, cache):
                return True
        return False
    for variable in variables:
        candidates = _cached_candidates(database, formula.body, variable, relations, cache)
        if candidates is not None and database.domain - candidates:
            return True  # any value outside the necessary set falsifies the body
    domain = _sorted_domain(database)
    for values in product(domain, repeat=len(variables)):
        extended = dict(assignment)
        extended.update(zip(variables, values))
        if not _satisfies(database, formula.body, extended, relations, max_relations, cache):
            return True
    return False


def evaluate_query(
    database: PhysicalDatabase,
    query: Query,
    max_relations: int = DEFAULT_MAX_RELATIONS,
) -> frozenset[tuple]:
    """Return ``Q(PB)``: all domain tuples satisfying the query condition.

    For a Boolean query the result is ``{()}`` (true) or ``frozenset()``
    (false), matching the paper's convention that the answer to a sentence is
    a 0-ary relation.  Head variables are enumerated over their candidate
    values when the formula provably confines them (and over the whole
    domain otherwise), which changes nothing about the answer set.
    *max_relations* caps the candidates tried per second-order quantifier.
    """
    cache: dict = {}
    answers = set()
    for values in product(*_value_lists(database, query.formula, query.head, {}, cache)):
        assignment = dict(zip(query.head, values))
        if _satisfies(database, query.formula, assignment, {}, max_relations, cache):
            answers.add(tuple(values))
    return frozenset(answers)


def evaluate_sentence(database: PhysicalDatabase, formula: Formula) -> bool:
    """Evaluate a sentence (no free variables) to a truth value."""
    return satisfies(database, formula, {})


# Bounded quantifier enumeration ----------------------------------------------


def candidate_values(
    formula: Formula,
    variable: Variable,
    atom_values: Callable[[str, int], frozenset | None],
    constant_value: Callable[[str], object],
) -> frozenset | None:
    """Values *variable* can take in **any** assignment satisfying *formula*.

    Returns ``None`` when no sound restriction can be derived (the variable
    then ranges over the whole domain).  The analysis only trusts contexts
    where an atom *must* hold: positive atoms contribute their relation
    column's values, conjunctions intersect, disjunctions union (and give up
    if any branch is unrestricted), first-order quantifiers pass through
    unless they shadow the variable, and anything under a
    negation/implication/extension atom/second-order quantifier contributes
    nothing — so a predicate re-bound by a second-order quantifier inside
    *formula* is never read under that binding.  ``atom_values(predicate,
    position)`` supplies the distinct values of one relation column, or
    ``None`` when that relation's interpretation is unknown or too
    expensive to enumerate (lazy relations).
    """
    if isinstance(formula, Bottom):
        return frozenset()
    if isinstance(formula, ExtensionAtom):
        return None
    if isinstance(formula, Atom):
        result: frozenset | None = None
        for position, term in enumerate(formula.args):
            if isinstance(term, Variable) and term == variable:
                values = atom_values(formula.predicate, position)
                if values is None:
                    return None
                result = values if result is None else result & values
        return result
    if isinstance(formula, Equals):
        other = None
        if formula.left == variable and isinstance(formula.right, Constant):
            other = formula.right
        elif formula.right == variable and isinstance(formula.left, Constant):
            other = formula.left
        if other is None:
            return None
        try:
            return frozenset({constant_value(other.name)})
        except DatabaseError:
            return None
    if isinstance(formula, And):
        result = None
        for operand in formula.operands:
            values = candidate_values(operand, variable, atom_values, constant_value)
            if values is not None:
                result = values if result is None else result & values
        return result
    if isinstance(formula, Or):
        result = frozenset()
        for operand in formula.operands:
            values = candidate_values(operand, variable, atom_values, constant_value)
            if values is None:
                return None
            result = result | values
        return result
    if isinstance(formula, (Exists, Forall)):
        if variable in formula.variables:
            return None  # shadowed: inner occurrences are a different variable
        return candidate_values(formula.body, variable, atom_values, constant_value)
    return None


def _value_lists(
    database: PhysicalDatabase,
    formula: Formula,
    variables: tuple[Variable, ...],
    relations: Mapping[str, frozenset[tuple]],
    cache: dict,
) -> list[tuple | list]:
    """Each variable's candidate values in a deterministic order (the domain if unrestricted)."""
    value_lists: list[tuple | list] = []
    for variable in variables:
        candidates = _cached_candidates(database, formula, variable, relations, cache)
        value_lists.append(_sorted_domain(database) if candidates is None else sorted(candidates, key=repr))
    return value_lists


def _cached_candidates(
    database: PhysicalDatabase,
    formula: Formula,
    variable: Variable,
    relations: Mapping[str, frozenset[tuple]],
    cache: dict,
) -> frozenset | None:
    """Candidates for one (sub)formula/variable pair, memoized per evaluation.

    A predicate bound by an enclosing second-order quantifier is read from
    its candidate relation in *relations*.  A second-order search revisits
    the same quantifier under many relation assignments, so a result that
    read such a relation is not memoized: it changes between visits.
    """
    key = (id(formula), variable)
    if key in cache:
        return cache[key]
    read_bound = False

    def atom_values(predicate: str, position: int) -> frozenset | None:
        nonlocal read_bound
        if predicate in relations:
            read_bound = True
            return frozenset(row[position] for row in relations[predicate])
        try:
            relation = database.relation(predicate)
        except DatabaseError:
            return None  # let the satisfaction walk report the error instead
        if isinstance(relation, Relation):
            return relation.column_values(position)
        return None  # lazy relation: enumerating it may be quadratic

    result = candidate_values(formula, variable, atom_values, database.constant_value)
    if not read_bound:
        cache[key] = result
    return result


def _sorted_domain(database: PhysicalDatabase) -> tuple:
    """The domain in deterministic order (cached on the immutable instance)."""
    cached = database.__dict__.get("_sorted_domain")
    if cached is None:
        cached = tuple(sorted(database.domain, key=repr))
        object.__setattr__(database, "_sorted_domain", cached)
    return cached
