"""Physical databases: relations, interpretations and query evaluation.

This is the "database as interpretation" half of the paper's dichotomy.  It
provides the storage and evaluation substrate the logical-database layer and
the approximation algorithm run on: materialized relations, one Tarskian
evaluator (second-order quantifiers range over enumerated relations), and a
small relational-algebra engine with a calculus-to-algebra compiler.
"""

from repro.physical.algebra import execute, plan_size, plan_to_text
from repro.physical.batch import ColumnBatch, execute_batched
from repro.physical.compiler import compile_formula, compile_query, evaluate_query_algebra
from repro.physical.csvio import (
    load_cw_database,
    load_physical_database,
    save_cw_database,
    save_physical_database,
)
from repro.physical.database import PhysicalDatabase
from repro.physical.evaluator import (
    DEFAULT_MAX_RELATIONS,
    enumerate_relations,
    evaluate_query,
    evaluate_sentence,
    evaluate_term,
    satisfies,
)
from repro.physical.relation import Relation, RelationLike, tuples_of

__all__ = [
    "Relation",
    "RelationLike",
    "tuples_of",
    "PhysicalDatabase",
    "satisfies",
    "evaluate_query",
    "evaluate_sentence",
    "evaluate_term",
    "enumerate_relations",
    "DEFAULT_MAX_RELATIONS",
    "execute",
    "execute_batched",
    "ColumnBatch",
    "plan_size",
    "plan_to_text",
    "compile_query",
    "compile_formula",
    "evaluate_query_algebra",
    "save_physical_database",
    "load_physical_database",
    "save_cw_database",
    "load_cw_database",
]
