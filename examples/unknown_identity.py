"""Reasoning about unknown identities: the Jack-the-Ripper example.

Section 2.2 of the paper illustrates uniqueness axioms with the remark that
the database may *not* contain the axiom

    ~(Jack the Ripper = Benjamin D'Israeli)

because we do not know the identity of Jack the Ripper.  This example builds
that database and asks the questions the model is designed to answer
carefully:

* who is provably a murderer?  (Jack — an atomic fact.)
* who is provably innocent?  (Nobody: any named gentleman might be Jack.)
* what happens when historians rule people out (uniqueness axioms added)?
* how the precise second-order simulation (Theorem 3) gives the same answers
  on this small instance.

Run with::

    python examples/unknown_identity.py
"""

from __future__ import annotations

from repro import CWDatabase, approximate_answers, certain_answers, certainly_holds, parse_query
from repro.logic.parser import parse_formula
from repro.simulation.precise import evaluate_by_simulation
from repro.workloads.scenarios import jack_the_ripper_database


def main() -> None:
    london = jack_the_ripper_database()
    print("database:", london.describe())
    print("constants:", ", ".join(london.constants))
    # The database stores its uniqueness axioms as the paper's U / NE':
    # the unknown values, and the inequalities known about them.
    print("unknown values U:", ", ".join(sorted(london.unknown_constants())))
    print("NE' (known inequalities involving them):", london.explicit_pairs() or "none")
    print()

    innocent = parse_query("(x) . LIVED_IN_LONDON(x) & ~MURDERER(x)")
    print("query:", innocent)
    print("  provably innocent (exact):       ", sorted(certain_answers(london, innocent)) or "nobody")
    print("  provably innocent (approximate): ", sorted(approximate_answers(london, innocent)) or "nobody")
    print()

    # The murderer is certainly a Londoner, even though we do not know who he is.
    assert certainly_holds(london, parse_formula("forall x. MURDERER(x) -> LIVED_IN_LONDON(x)"))
    print("certain: every murderer in the database lived in London")

    # Neither "Jack is Disraeli" nor "Jack is not Disraeli" is certain.
    is_disraeli = parse_formula("'jack_the_ripper' = 'benjamin_disraeli'")
    print("certain that Jack IS Disraeli?    ", certainly_holds(london, is_disraeli))
    print("certain that Jack is NOT Disraeli?", certainly_holds(london, parse_formula("~('jack_the_ripper' = 'benjamin_disraeli')")))
    print()

    # Historians rule out Dr Watson and Dickens (uniqueness axioms added).
    narrowed = (
        london
        .with_unequal("jack_the_ripper", "john_watson")
        .with_unequal("jack_the_ripper", "charles_dickens")
    )
    print("after ruling out Watson and Dickens:")
    # One unknown pair is left; either of its constants covers it as U.
    print("  U now:", ", ".join(sorted(narrowed.unknown_constants())), "  NE' now:", narrowed.explicit_pairs())
    exact = certain_answers(narrowed, innocent)
    approx = approximate_answers(narrowed, innocent)
    print("  provably innocent (exact):       ", sorted(exact))
    print("  provably innocent (approximate): ", sorted(approx))
    assert approx == exact  # here the approximation happens to be complete
    print()

    # The Theorem 3 simulation is only runnable on truly tiny instances (it
    # enumerates every candidate relation for the quantified H and primed
    # predicates), so the cross-check uses a two-suspect extract of the case.
    tiny = CWDatabase.from_unknowns(
        constants=("jack_the_ripper", "benjamin_disraeli"),
        predicates={"MURDERER": 1},
        facts={"MURDERER": [("jack_the_ripper",)]},
        unknown=["jack_the_ripper"],
    )
    print("Theorem 3 cross-check (second-order simulation over Ph2, two-suspect extract):")
    simulated = evaluate_by_simulation(tiny, parse_query("(x) . MURDERER(x)"))
    print("  murderers by simulation:", sorted(simulated))
    assert simulated == certain_answers(tiny, parse_query("(x) . MURDERER(x)"))
    not_murderer = parse_query("(x) . ~MURDERER(x)")
    assert evaluate_by_simulation(tiny, not_murderer) == certain_answers(tiny, not_murderer) == frozenset()


if __name__ == "__main__":
    main()
