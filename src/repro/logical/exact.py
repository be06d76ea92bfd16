"""Exact certain-answer evaluation over CW logical databases (Theorem 1).

The answer to a query ``Q = (x) . phi(x)`` over a logical database
``LB = (L, T)`` is the set of constant tuples ``c`` with ``T |=_f phi(c)``
(finite implication).  Theorem 1 turns this into something executable:

    c ∈ Q(LB)   iff   h(c) ∈ Q(h(Ph1(LB)))  for every h : C -> C respecting T.

The evaluator below iterates over respecting mappings (by default one per
kernel, see :mod:`repro.logical.mappings`), evaluates the query over each
image database, and intersects.  Candidate answers are pruned as soon as a
mapping eliminates them, and the enumeration stops early once no candidate
survives or the request's deadline passes (checked once per mapping).  The cost is exponential in the number of constants — that is the
co-NP-hardness of Theorem 5 showing up in practice, and it is precisely what
the approximation algorithm of Section 5 avoids.
"""

from __future__ import annotations

from itertools import product

from repro.errors import CapacityError
from repro.logic.formulas import Formula
from repro.logic.queries import Query, TRUE_ANSWER, boolean_query
from repro.logical.database import CWDatabase
from repro.logical.mappings import DEFAULT_MAX_MAPPINGS, mappings
from repro.logical.ph import ph1
from repro.physical.evaluator import DEFAULT_MAX_RELATIONS, evaluate_query
from repro.resilience.deadlines import check_deadline

__all__ = ["certain_answers", "certainly_holds", "CertainAnswerEvaluator"]


class CertainAnswerEvaluator:
    """Reusable exact evaluator with a fixed enumeration strategy.

    Parameters
    ----------
    strategy:
        ``"canonical"`` (default) enumerates one mapping per admissible
        partition; ``"all"`` enumerates every respecting function, which is
        the literal statement of Theorem 1 (used for cross-checks and the
        E11 ablation).
    max_mappings:
        Safety cap on the enumeration size.
    max_relations:
        Cap per second-order quantifier when the query is second order.
    """

    def __init__(
        self,
        strategy: str = "canonical",
        max_mappings: int = DEFAULT_MAX_MAPPINGS,
        max_relations: int = DEFAULT_MAX_RELATIONS,
    ) -> None:
        if strategy not in ("canonical", "all"):
            raise ValueError(f"unknown strategy {strategy!r}; use 'canonical' or 'all'")
        self.strategy = strategy
        self.max_mappings = max_mappings
        self.max_relations = max_relations

    # Public API ---------------------------------------------------------------

    def certain_answers(self, database: CWDatabase, query: Query) -> frozenset[tuple[str, ...]]:
        """Return ``Q(LB)``: the tuples of constants finitely implied to satisfy ``Q``."""
        from repro.logic.template import check_bound

        check_bound(query)
        constants = database.constants
        arity = query.arity
        candidate_count = len(constants) ** arity
        if candidate_count > self.max_mappings:
            raise CapacityError(
                f"query arity {arity} over {len(constants)} constants yields {candidate_count} candidate tuples"
            )
        surviving: set[tuple[str, ...]] = set(product(constants, repeat=arity))
        base = ph1(database)
        for mapping in mappings(database, self.strategy, self.max_mappings):
            if not surviving:
                break
            check_deadline("exact kernel enumeration")
            image = base.map_domain(mapping)
            answers = evaluate_query(image, query, self.max_relations)
            surviving = {
                candidate
                for candidate in surviving
                if tuple(mapping[value] for value in candidate) in answers
            }
        return frozenset(surviving)

    def certainly_holds(self, database: CWDatabase, sentence: Formula) -> bool:
        """Decide ``T |=_f sentence`` for a sentence (Boolean certain answer)."""
        return self.certain_answers(database, boolean_query(sentence)) == TRUE_ANSWER


def certain_answers(
    database: CWDatabase,
    query: Query,
    strategy: str = "canonical",
    max_mappings: int = DEFAULT_MAX_MAPPINGS,
) -> frozenset[tuple[str, ...]]:
    """Module-level convenience wrapper around :class:`CertainAnswerEvaluator`."""
    return CertainAnswerEvaluator(strategy, max_mappings).certain_answers(database, query)


def certainly_holds(
    database: CWDatabase,
    sentence: Formula,
    strategy: str = "canonical",
    max_mappings: int = DEFAULT_MAX_MAPPINGS,
) -> bool:
    """Decide whether a sentence is finitely implied by the database's theory."""
    return CertainAnswerEvaluator(strategy, max_mappings).certainly_holds(database, sentence)

