"""The engine behind ``engine="auto"``: chosen by capability, not by cost.

First-order rewrites run on the algebra engine (Theorem 14's "standard
relational system"); second-order rewrites run on the Tarskian evaluator, the
only engine that can express them.
"""

from __future__ import annotations

from repro.logic.analysis import is_first_order
from repro.logic.queries import Query
from repro.physical.database import PhysicalDatabase
from repro.physical.plan import PlanNode

__all__ = ["choose_engine"]


def choose_engine(storage: PhysicalDatabase, query: Query, plan: PlanNode | None) -> str:
    """Resolve ``engine="auto"`` for the rewritten *query* and its compiled *plan*."""
    if plan is None or not is_first_order(query.formula):
        return "tarski"
    return "algebra"
