"""Implementing a logical database on top of a "standard relational system".

Section 5 closes with the practical recipe: store a CW logical database
``LB`` as the physical database ``Ph2(LB)`` (facts plus an ``NE`` inequality
relation, read off the ``U``/``NE'`` encoding the database stores), compile
every query ``Q`` to ``Q-hat``, and run it on the relational engine.  This
example shows the whole pipeline with the pieces exposed:

1. the stored relations of ``Ph2(LB)`` (and the size the encoding saves);
2. the rewritten query, including the literal Lemma 10 ``alpha_P`` formula;
3. the compiled relational-algebra plan;
4. persistence to CSV and reloading (the "DBMS" keeps running tomorrow).

Run with::

    python examples/approximate_dbms.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ApproximateEvaluator, certain_answers, parse_query
from repro.logic.printer import to_text
from repro.logic.vocabulary import NE_PREDICATE
from repro.logical.ph import ph2
from repro.physical.algebra import execute, plan_to_text
from repro.physical.compiler import compile_query
from repro.physical.csvio import load_cw_database, save_cw_database
from repro.workloads.generators import employee_database


def main() -> None:
    company = employee_database(20, n_departments=5, unknown_manager_fraction=0.4, seed=2)
    print("logical database:", company.describe())

    # 1. Storage: Ph2(LB); NE is read off U (the nulls) and NE'.
    storage = ph2(company)
    ne = storage.relation(NE_PREDICATE)
    print(f"unknown values U: {', '.join(sorted(company.unknown))}")
    print(f"stored NE entries: {ne.stored_size} (|U| + |NE'|)")
    print(f"materialized NE would need: {len(ne)} pairs")
    print()

    # 2. Query compilation: Q -> Q-hat.  The "formula" rewriting shows that the
    #    whole thing stays inside first-order logic (Lemma 10's alpha formula is
    #    inlined); the execution below uses the equivalent "direct" rewriting,
    #    whose alpha atoms the engine materializes in polynomial time.
    query = parse_query("(e) . (exists d. EMP_DEPT(e, d)) & ~EMP_SAL(e, 'high') & ~(e = 'emp0')")
    display = ApproximateEvaluator(engine="algebra", mode="formula")
    print("source query  :", query)
    print("rewritten Q-hat (first-order, Lemma 10 alpha formulas inlined):")
    print(" ", to_text(display.rewrite(query).formula)[:200], "...")
    print()

    evaluator = ApproximateEvaluator(engine="algebra", mode="direct")
    rewritten = evaluator.rewrite(query)

    # 3. The relational-algebra plan the engine executes.
    plan = compile_query(rewritten, storage)
    print("compiled plan:")
    print(plan_to_text(plan))
    print()

    answers = frozenset(execute(plan, storage).rows)
    exact = certain_answers(company, query)
    print(f"answers from the relational engine : {len(answers)}")
    print(f"exact certain answers              : {len(exact)}")
    print(f"sound (Theorem 11)                 : {answers <= exact}")
    assert answers <= exact
    print()

    # 4. Persistence round trip.
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "company_db"
        save_cw_database(company, directory)
        files = sorted(path.name for path in directory.iterdir())
        print("persisted files:", ", ".join(files))
        reloaded = load_cw_database(directory)
        assert evaluator.answers(reloaded, query) == evaluator.answers(company, query)
        print("reloaded database answers the query identically.")


if __name__ == "__main__":
    main()
