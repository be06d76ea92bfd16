"""Closed-world logical databases and exact certain-answer evaluation.

This package is the paper's primary object of study: Reiter-style
closed-world databases with unknown values (Section 2.2), the combinatorial
characterization of their certain answers (Theorem 1), and the associated
physical databases ``Ph1(LB)`` / ``Ph2(LB)`` on which the simulation and
the approximation algorithm operate.
"""

from repro.logical.axioms import (
    AtomicFact,
    UniquenessAxiom,
    completion_axiom,
    completion_axioms,
    domain_closure_axiom,
    fact_formula,
    theory_formulas,
    uniqueness_formula,
)
from repro.logical.database import CWDatabase
from repro.logical.exact import (
    CertainAnswerEvaluator,
    certain_answers,
    certainly_holds,
    possible_answers,
)
from repro.logical.explain import (
    CounterExample,
    explain_answer,
    explain_non_answer,
    why_unknown,
)
from repro.logical.mappings import (
    DEFAULT_MAX_MAPPINGS,
    apply_mapping,
    apply_to_ph1,
    count_all_mappings,
    count_canonical_mappings,
    count_respecting_mappings,
    enumerate_canonical_mappings,
    enumerate_respecting_mappings,
    mappings,
    respects,
)
from repro.logical.models import (
    certain_answers_by_model_checking,
    enumerate_models,
    is_model,
)
from repro.logical.ph import NE_PREDICATE, ph1, ph2
from repro.logical.unknowns import VirtualNERelation

__all__ = [
    "CWDatabase",
    "AtomicFact",
    "UniquenessAxiom",
    "fact_formula",
    "uniqueness_formula",
    "domain_closure_axiom",
    "completion_axiom",
    "completion_axioms",
    "theory_formulas",
    "ph1",
    "ph2",
    "NE_PREDICATE",
    "respects",
    "apply_mapping",
    "apply_to_ph1",
    "mappings",
    "enumerate_respecting_mappings",
    "enumerate_canonical_mappings",
    "count_all_mappings",
    "count_respecting_mappings",
    "count_canonical_mappings",
    "DEFAULT_MAX_MAPPINGS",
    "certain_answers",
    "certainly_holds",
    "possible_answers",
    "CertainAnswerEvaluator",
    "CounterExample",
    "explain_non_answer",
    "explain_answer",
    "why_unknown",
    "is_model",
    "enumerate_models",
    "certain_answers_by_model_checking",
    "VirtualNERelation",
]
