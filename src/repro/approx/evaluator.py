"""The approximate query-evaluation algorithm ``A(Q, LB) = Q-hat(Ph2(LB))``.

Section 5: instead of the co-NP-hard exact evaluation, store the logical
database as the physical database ``Ph2(LB)`` and evaluate the rewritten
query ``Q-hat`` with an ordinary (polynomial data complexity) engine.  The
algorithm is

* **sound** — every returned tuple is a certain answer (Theorem 11);
* **complete for fully specified databases** (Theorem 12);
* **complete for positive queries** (Theorem 13);
* and its complexity matches physical query evaluation (Theorem 14).

Two engines are available: the direct Tarskian evaluator and the
relational-algebra compiler (the "standard relational system" path).  Both
must produce the same answers; the Tarskian evaluator is the definition the
tests check the algebra engine against.  A third setting, ``engine="auto"``,
chooses by capability: first-order rewrites run on the algebra engine,
second-order rewrites on the Tarskian evaluator, the only engine that can
express them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsupportedFormulaError
from repro.logic.analysis import is_first_order
from repro.logic.formulas import Formula
from repro.logic.queries import Query, TRUE_ANSWER, boolean_query
from repro.logic.template import check_bound
from repro.logical.database import CWDatabase
from repro.logical.ph import ph2
from repro.physical.algebra import execute
from repro.physical.compiler import compile_query
from repro.physical.database import PhysicalDatabase
from repro.physical.evaluator import evaluate_query
from repro.physical.optimizer import optimize as optimize_plan
from repro.physical.plan import PlanNode
from repro.physical.second_order import DEFAULT_MAX_RELATIONS, evaluate_query_so
from repro.approx.rewrite import rewrite_query

__all__ = ["ApproximateEvaluator", "approximate_answers", "approximately_holds"]

@dataclass(frozen=True)
class ApproximateEvaluator:
    """Configured approximate evaluator.

    Parameters
    ----------
    mode:
        Treatment of negated atoms: ``"direct"`` (AlphaAtom extension atoms)
        or ``"formula"`` (the literal Lemma 10 first-order formula).
    engine:
        ``"tarski"`` for the direct semantic evaluator, ``"algebra"`` for the
        compile-to-relational-algebra path, ``"auto"`` for the algebra path
        with the Tarskian evaluator for second-order rewrites (answers are
        identical either way).
    max_relations:
        Cap per second-order quantifier if the query is second order.
    optimize:
        Whether the algebra engine runs the plan optimizer (default ``True``;
        ``False`` executes naive plans).  Answers are identical either way.
    """

    mode: str = "direct"
    engine: str = "tarski"
    max_relations: int = DEFAULT_MAX_RELATIONS
    optimize: bool = True

    def __post_init__(self) -> None:
        engines = ("tarski", "algebra", "auto")
        if self.engine not in engines:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {engines}")

    # Public API -----------------------------------------------------------------

    def storage(self, database: CWDatabase) -> PhysicalDatabase:
        """The stored representation of the logical database: ``Ph2(LB)``."""
        return ph2(database)

    def rewrite(self, query: Query) -> Query:
        """The compiled query ``Q-hat``."""
        return rewrite_query(query, self.mode)

    def answers(self, database: CWDatabase, query: Query) -> frozenset[tuple[str, ...]]:
        """Return ``A(Q, LB) = Q-hat(Ph2(LB))`` — a sound subset of ``Q(LB)``."""
        return self.answers_on_storage(self.storage(database), query)

    def plan_on_storage(self, storage: PhysicalDatabase, query: Query) -> PlanNode | None:
        """The compiled, optimized plan for *query* on *storage*, if one applies.

        Returns ``None`` when this evaluator would not execute through the
        algebra engine (``engine="tarski"``, or a second-order rewrite).  The
        plan is specific to *storage* — compilation consults its constants
        and active domain — so cache it keyed on the storage's content (the
        serving layer uses the snapshot fingerprint).
        """
        rewritten = self.rewrite(query)
        if self.engine == "tarski" or not is_first_order(rewritten.formula):
            return None
        return self._plan_for(storage, rewritten)

    def _plan_for(self, storage: PhysicalDatabase, rewritten: Query) -> PlanNode:
        """Compile + optimize an already-rewritten first-order query."""
        plan = compile_query(rewritten, storage)
        if self.optimize:
            plan = optimize_plan(plan, storage)
        return plan

    def answers_on_storage(
        self,
        storage: PhysicalDatabase,
        query: Query,
        plan: PlanNode | None = None,
        profiler=None,
    ) -> frozenset[tuple[str, ...]]:
        """Evaluate the rewritten query against an already-built ``Ph2(LB)``.

        Splitting storage construction from evaluation lets benchmarks charge
        the (one-off) storage cost separately from the per-query cost.  Pass
        a *plan* from :meth:`plan_on_storage` (for the same storage!) to skip
        the rewrite + compile + optimize work entirely — the warm path of the
        serving layer's plan cache.  *profiler* (EXPLAIN ANALYZE) meters
        per-node rows and wall time; the Tarskian path has no plan
        intermediates to observe, so it is silently inert there.
        """
        if plan is not None:
            return execute(plan, storage, profiler=profiler).rows
        check_bound(query)
        rewritten = self.rewrite(query)
        if is_first_order(rewritten.formula):
            if self.engine == "tarski":
                return evaluate_query(storage, rewritten)
            return execute(self._plan_for(storage, rewritten), storage, profiler=profiler).rows
        if self.engine == "algebra":
            raise UnsupportedFormulaError("the algebra engine cannot evaluate second-order queries")
        return evaluate_query_so(storage, rewritten, self.max_relations)

    def holds(self, database: CWDatabase, sentence: Formula) -> bool:
        """Boolean form: does the approximation derive the sentence?"""
        return self.answers(database, boolean_query(sentence)) == TRUE_ANSWER


def approximate_answers(
    database: CWDatabase,
    query: Query,
    mode: str = "direct",
    engine: str = "tarski",
) -> frozenset[tuple[str, ...]]:
    """Convenience wrapper: ``A(Q, LB)`` with a one-shot evaluator."""
    evaluator = ApproximateEvaluator(mode=mode, engine=engine)
    return evaluator.answers(database, query)


def approximately_holds(
    database: CWDatabase,
    sentence: Formula,
    mode: str = "direct",
    engine: str = "tarski",
) -> bool:
    """Boolean convenience wrapper around :func:`approximate_answers`."""
    evaluator = ApproximateEvaluator(mode=mode, engine=engine)
    return evaluator.holds(database, sentence)
