"""Hypothesis strategies shared by the property-based tests.

The strategies generate *small* artifacts on purpose: several properties
compare the approximation against the exact (exponential) evaluator, so
databases stay at <= 4 constants and formulas at modest depth.

:func:`negation_cases` is the strategy for the paper's own case — a negated
stored atom over a database with nulls (Lemma 10's ``alpha_P``) — and is not
compared against the exact evaluator, so it affords 5 constants and arity 3.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.logic.formulas import And, Atom, Equals, Exists, Forall, Formula, Not, Or
from repro.logic.queries import Query
from repro.logic.terms import Constant, Variable
from repro.logic.vocabulary import NE_PREDICATE
from repro.logical.database import CWDatabase
from repro.physical.database import PhysicalDatabase

#: Fixed schema used by every generated database and formula.
SCHEMA = {"P": 1, "R": 2}

CONSTANT_NAMES = ("a", "b", "c", "d")
VARIABLE_NAMES = ("x", "y", "z")


@st.composite
def cw_databases(draw, max_constants: int = 4, max_facts: int = 6) -> CWDatabase:
    """A random small CW logical database over the fixed schema.

    Databases always contain the constants ``a`` and ``b`` so that
    independently generated queries (whose constant pool is exactly
    ``{a, b}``, see :func:`terms`) are guaranteed to fit the vocabulary.
    """
    n_constants = draw(st.integers(min_value=2, max_value=max(2, max_constants)))
    constants = CONSTANT_NAMES[:n_constants]

    facts: dict[str, set[tuple[str, ...]]] = {"P": set(), "R": set()}
    n_facts = draw(st.integers(min_value=0, max_value=max_facts))
    for __ in range(n_facts):
        predicate = draw(st.sampled_from(sorted(SCHEMA)))
        row = tuple(draw(st.sampled_from(constants)) for __ in range(SCHEMA[predicate]))
        facts[predicate].add(row)

    pairs = [
        (constants[i], constants[j])
        for i in range(n_constants)
        for j in range(i + 1, n_constants)
    ]
    unequal = [pair for pair in pairs if draw(st.booleans())]
    return CWDatabase(constants, dict(SCHEMA), facts, unequal)


def materialized_ph2(database: CWDatabase) -> PhysicalDatabase:
    """The reference ``Ph2(LB)``: ``NE`` as the quadratic set of ordered pairs.

    Built from :meth:`~repro.logical.database.CWDatabase.unequal_pairs`
    alone, so it shares nothing with the ``U``/``NE'`` encoding that
    :func:`repro.logical.ph.ph2` reads ``NE`` from — the oracle the property
    tests compare the one library ``Ph2`` against.
    """
    relations: dict[str, object] = dict(database.facts)
    relations[NE_PREDICATE] = {ordered for pair in database.unequal_pairs() for ordered in (pair, pair[::-1])}
    constants = database.constants
    return PhysicalDatabase(database.vocabulary.with_ne(), constants, {name: name for name in constants}, relations)


@st.composite
def terms(draw, variables: tuple[str, ...]):
    if draw(st.booleans()) and variables:
        return Variable(draw(st.sampled_from(variables)))
    return Constant(draw(st.sampled_from(CONSTANT_NAMES[:2])))


@st.composite
def formulas(draw, variables: tuple[str, ...] = VARIABLE_NAMES, depth: int = 3, allow_negation: bool = True) -> Formula:
    """A random first-order formula over the fixed schema.

    All variables are drawn from a small fixed pool, so generated formulas
    may have free variables (queries bind them with an explicit head).
    """
    if depth <= 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        kind = draw(st.sampled_from(["P", "R", "="]))
        if kind == "=":
            atom: Formula = Equals(draw(terms(variables)), draw(terms(variables)))
        else:
            atom = Atom(kind, tuple(draw(terms(variables)) for __ in range(SCHEMA[kind])))
        if allow_negation and draw(st.booleans()):
            return Not(atom)
        return atom

    connective = draw(st.sampled_from(["and", "or", "exists", "forall", "not"]))
    if connective == "not" and allow_negation:
        return Not(draw(formulas(variables, depth - 1, allow_negation)))
    if connective in ("and", "or"):
        left = draw(formulas(variables, depth - 1, allow_negation))
        right = draw(formulas(variables, depth - 1, allow_negation))
        return And((left, right)) if connective == "and" else Or((left, right))
    bound = Variable(draw(st.sampled_from(VARIABLE_NAMES)))
    body = draw(formulas(tuple(set(variables) | {bound.name}), depth - 1, allow_negation))
    return Exists((bound,), body) if connective == "exists" else Forall((bound,), body)


@st.composite
def queries(draw, max_arity: int = 2, allow_negation: bool = True) -> Query:
    """A random query whose head covers all free variables of its formula."""
    from repro.logic.analysis import free_variables

    formula = draw(formulas(allow_negation=allow_negation))
    free = sorted(free_variables(formula), key=lambda v: v.name)
    extra_arity = draw(st.integers(min_value=0, max_value=max(0, max_arity - len(free))))
    head = tuple(free) + tuple(
        Variable(f"h{i}") for i in range(extra_arity)
    )
    return Query(head, formula)


# Negated atoms over nulls ----------------------------------------------------------

#: Schema of the negation strategy: one predicate of each arity 1-3.
NEGATION_SCHEMA = {"P": 1, "R": 2, "T": 3}


@st.composite
def negation_cases(draw, max_constants: int = 5, max_facts: int = 4) -> tuple[CWDatabase, Query]:
    """A CW database with nulls and a query built around negated stored atoms.

    The database has 2-5 constants, up to *max_facts* stored tuples per
    predicate and a random subset of the uniqueness axioms, so some constants
    are nulls (possibly equal to others) and some are known.  The negated
    atoms draw their arguments from a pool of two variables and two
    constants — smaller than the largest arity — so they repeat variables
    (``~R(x, x)``, ``~T(x, y, x)``), repeat constants, and name values that
    also occur in *other* columns of stored tuples (``~R(x, 'a')`` with
    ``R('a', 'a')`` stored): exactly the cases where the graph ``G_{c,d}`` of
    Lemma 10 merges components across columns.
    """
    n_constants = draw(st.integers(min_value=2, max_value=max_constants))
    constants = ("a", "b", "c", "d", "e")[:n_constants]
    facts = {
        predicate: draw(
            st.sets(st.tuples(*[st.sampled_from(constants)] * arity), max_size=max_facts)
        )
        for predicate, arity in NEGATION_SCHEMA.items()
    }
    pairs = [(left, right) for i, left in enumerate(constants) for right in constants[i + 1 :]]
    unequal = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    database = CWDatabase(constants, dict(NEGATION_SCHEMA), facts, unequal)

    pool = [Variable("x"), Variable("y"), Constant("a"), Constant(constants[-1])]

    def atom():
        predicate = draw(st.sampled_from(sorted(NEGATION_SCHEMA)))
        return Atom(predicate, tuple(draw(st.sampled_from(pool)) for __ in range(NEGATION_SCHEMA[predicate])))

    body: Formula = Not(atom())
    shape = draw(st.sampled_from(["bare", "guarded", "either", "both"]))
    if shape == "guarded":
        body = And((atom(), body))
    elif shape == "either":
        body = Or((body, atom()))
    elif shape == "both":
        body = And((body, Not(atom())))

    from repro.logic.analysis import free_variables

    free = sorted(free_variables(body), key=lambda variable: variable.name)
    if len(free) == 2 and draw(st.booleans()):
        body = Exists((free.pop(),), body)
    return database, Query(tuple(free), body)
