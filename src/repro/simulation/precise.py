"""The precise simulation of logical databases by physical databases (Section 3.2).

Theorem 3: for every CW logical database ``LB`` and query ``Q`` there is a
*second-order* query ``Q'`` over the extended vocabulary ``L'`` (which adds
the stored inequality relation ``NE``) such that

    Q(LB) = Q'(Ph2(LB)).

The construction introduces, for every predicate ``P_i`` of ``L``, a fresh
predicate ``P'_i`` of the same arity, plus a fresh binary predicate ``H``
representing a mapping ``h : C -> C``:

* ``rho = rho1 & rho2 & rho3`` forces ``H`` to be a total functional relation
  that never sends two ``NE``-related constants to the same value (i.e. the
  represented ``h`` respects the theory);
* ``theta_i`` forces ``P'_i`` to be exactly the image of ``P_i`` under ``H``;
* ``psi`` existentially picks the images of the answer tuple and asserts the
  original formula with every ``P_i`` replaced by ``P'_i``;
* finally ``Q' = (z) . forall H forall P'_1 ... forall P'_m (rho & theta -> psi)``.

The paper stresses that this is *not* a practical implementation — the whole
point is that the hidden cost of unknown values is a universal second-order
quantification.  We implement it anyway, evaluate it by brute-force relation
enumeration on tiny instances, and check Theorem 3 against the exact
evaluator (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsupportedFormulaError, VocabularyError
from repro.logic.analysis import is_first_order, predicates_in
from repro.logic.formulas import (
    And,
    Atom,
    Equals,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    SecondOrderForall,
    conjoin,
    exists,
)
from repro.logic.queries import Query
from repro.logic.terms import Constant, Variable
from repro.logic.transform import rename_predicate, standardize_apart
from repro.logic.vocabulary import NE_PREDICATE, Vocabulary
from repro.logical.database import CWDatabase
from repro.logical.ph import ph2
from repro.physical.evaluator import DEFAULT_MAX_RELATIONS, evaluate_query

__all__ = ["SimulationQuery", "build_simulation_query", "evaluate_by_simulation", "H_PREDICATE"]

#: Name of the fresh binary predicate representing the mapping ``h``.
H_PREDICATE = "H"

#: Suffix used to build the primed predicate names ``P'_i``.
_PRIME_SUFFIX = "__prime"


@dataclass(frozen=True)
class SimulationQuery:
    """The second-order query ``Q'`` together with its bookkeeping.

    Attributes
    ----------
    query:
        The query ``Q'`` itself (over ``L'`` extended with the quantified
        ``H`` and ``P'_i`` predicates).
    primed:
        Mapping from original predicate name to its primed counterpart.
    """

    query: Query
    primed: dict[str, str]

    def __hash__(self) -> int:  # primed is a dict; hash on the query only
        return hash(self.query)


def build_simulation_query(query: Query, vocabulary: Vocabulary) -> SimulationQuery:
    """Construct ``Q'`` from ``Q`` for databases over *vocabulary* (Section 3.2)."""
    if not is_first_order(query.formula):
        raise UnsupportedFormulaError(
            "the precise simulation is defined for first-order source queries "
            "(it already produces a second-order result)"
        )
    used = predicates_in(query.formula)
    undeclared = used - set(vocabulary.predicates)
    if undeclared:
        raise VocabularyError(f"query uses predicates not in the vocabulary: {sorted(undeclared)}")
    if NE_PREDICATE in used or H_PREDICATE in used:
        raise VocabularyError("source queries must not mention the reserved NE or H predicates")

    predicates = {name: arity for name, arity in sorted(vocabulary.predicates.items()) if name != NE_PREDICATE}
    primed = {name: f"{name}{_PRIME_SUFFIX}" for name in predicates}

    rho = _build_rho()
    thetas = [_build_theta(name, arity, primed[name]) for name, arity in predicates.items()]
    psi = _build_psi(query, primed)

    body: Formula = Implies(conjoin([rho] + thetas), psi)
    # forall P'_m ... forall P'_1 forall H  (innermost listed first below)
    for name, arity in predicates.items():
        body = SecondOrderForall(primed[name], arity, body)
    body = SecondOrderForall(H_PREDICATE, 2, body)

    head = tuple(Variable(f"z{i + 1}") for i in range(query.arity))
    return SimulationQuery(query=Query(head, body), primed=primed)


def _build_rho() -> Formula:
    """``rho1 & rho2 & rho3``: H is total, functional and respects NE."""
    x, y, z, u, v = (Variable(name) for name in ("rx", "ry", "rz", "ru", "rv"))
    rho1 = Forall((x,), Exists((y,), Atom(H_PREDICATE, (x, y))))
    rho2 = Forall(
        (x, y, z),
        Implies(And((Atom(H_PREDICATE, (x, y)), Atom(H_PREDICATE, (x, z)))), Equals(y, z)),
    )
    rho3 = Forall(
        (x, y, u, v),
        Implies(
            And((Atom(NE_PREDICATE, (x, y)), Atom(H_PREDICATE, (x, u)), Atom(H_PREDICATE, (y, v)))),
            Not(Equals(u, v)),
        ),
    )
    return conjoin([rho1, rho2, rho3])


def _build_theta(predicate: str, arity: int, primed_name: str) -> Formula:
    """``theta_i``: the primed predicate is exactly the image of ``P_i`` under H."""
    ys = tuple(Variable(f"ty{i + 1}") for i in range(arity))
    us = tuple(Variable(f"tu{i + 1}") for i in range(arity))
    h_links = [Atom(H_PREDICATE, (y, u)) for y, u in zip(ys, us)]

    forward = Forall(
        ys + us,
        Implies(conjoin([Atom(predicate, ys)] + h_links), Atom(primed_name, us)),
    )
    backward = Forall(
        us,
        Implies(
            Atom(primed_name, us),
            Exists(ys, conjoin([Atom(predicate, ys)] + h_links)),
        ),
    )
    return And((forward, backward))


def _build_psi(query: Query, primed: dict[str, str]) -> Formula:
    """``psi``: pick images of the answer tuple through H and assert ``phi'``.

    Beyond the paper's construction (which routes the head variables ``z_i``
    through ``H`` to their images ``w_i``), constants mentioned by the query
    are routed through ``H`` as well: the atom ``P(a)`` of the source query
    asks about ``h(a)`` in ``h(Ph1(LB))``, while ``Ph2(LB)`` interprets ``a``
    as itself, so the simulated formula must talk about the H-image of ``a``.
    (The paper's statement implicitly covers constant-free queries; this is
    the straightforward generalization.)
    """
    from repro.logic.analysis import constants_in
    from repro.logic.transform import replace_constants, substitute

    head = tuple(Variable(f"z{i + 1}") for i in range(query.arity))
    images = tuple(Variable(f"w{i + 1}") for i in range(query.arity))

    primed_formula = rename_predicate(query.formula, primed)
    constants = sorted(constants_in(primed_formula), key=lambda constant: constant.name)
    constant_images = {
        constant.name: Variable(f"wc{index + 1}") for index, constant in enumerate(constants)
    }

    reserved = (
        {v.name for v in head}
        | {v.name for v in images}
        | set(constant_images[name].name for name in constant_images)
    )
    primed_formula = standardize_apart(primed_formula, reserved)
    # The source query's head variables become the image variables w_i, and
    # every constant c becomes its image variable wc_j.
    primed_formula = substitute(primed_formula, dict(zip(query.head, images)))
    primed_formula = replace_constants(primed_formula, constant_images)

    links = [Atom(H_PREDICATE, (z, w)) for z, w in zip(head, images)]
    constant_links = [
        Atom(H_PREDICATE, (Constant(name), constant_images[name])) for name in sorted(constant_images)
    ]
    bound = images + tuple(constant_images[name] for name in sorted(constant_images))
    return exists(bound, conjoin(links + constant_links + [primed_formula]))


def evaluate_by_simulation(
    database: CWDatabase,
    query: Query,
    max_relations: int = DEFAULT_MAX_RELATIONS,
) -> frozenset[tuple[str, ...]]:
    """Evaluate ``Q(LB)`` as ``Q'(Ph2(LB))`` (Theorem 3), by brute-force SO evaluation.

    Only feasible for very small databases: each universally quantified
    predicate of arity ``k`` ranges over ``2^(|C|^k)`` relations.  Raises
    :class:`~repro.errors.CapacityError` when the enumeration would exceed
    *max_relations* candidates per quantifier.
    """
    simulation = build_simulation_query(query, database.vocabulary)
    storage = ph2(database)
    return evaluate_query(storage, simulation.query, max_relations)
