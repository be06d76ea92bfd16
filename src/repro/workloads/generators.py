"""Random workload generators.

The paper has no benchmark datasets, so the experiments draw on synthetic
workloads with controllable size and "unknown-value" fraction:

* :func:`random_cw_database` — random facts over a given schema, with a
  chosen fraction of constant pairs left without a uniqueness axiom
  (i.e. unknown identities);
* :func:`random_positive_query` / :func:`random_query` — random queries of a
  bounded depth over a schema, either purely positive (the Theorem 13 class)
  or with negation;
* :func:`employee_database` — the employee/department/manager scenario the
  paper's introduction uses to motivate queries, scaled by a size parameter
  and with "null" managers modelled as unknown constants.

All generators take an explicit seed so experiments are reproducible.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.logic.builders import V
from repro.logic.formulas import (
    And,
    Atom,
    Equals,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
)
from repro.logic.queries import Query
from repro.logic.terms import Constant, Term, Variable
from repro.logical.database import CWDatabase

__all__ = [
    "random_cw_database",
    "random_query",
    "random_positive_query",
    "join_chain_query",
    "join_heavy_workload",
    "employee_database",
    "EMPLOYEE_PREDICATES",
    "skewed_star_database",
    "skewed_adaptive_workload",
    "SKEWED_PREDICATES",
]


def random_cw_database(
    n_constants: int,
    predicates: Mapping[str, int],
    n_facts: int,
    unknown_fraction: float = 0.3,
    seed: int | None = None,
) -> CWDatabase:
    """Random CW logical database.

    ``unknown_fraction`` is the probability that a pair of distinct constants
    is left *without* a uniqueness axiom (an unknown identity); 0.0 gives a
    fully specified database, 1.0 a database with no uniqueness axioms.
    """
    if n_constants < 1:
        raise ValueError("need at least one constant")
    rng = random.Random(seed)
    constants = tuple(f"c{i}" for i in range(n_constants))

    facts: dict[str, set[tuple[str, ...]]] = {name: set() for name in predicates}
    predicate_names = sorted(predicates)
    for __ in range(n_facts):
        name = rng.choice(predicate_names)
        row = tuple(rng.choice(constants) for __ in range(predicates[name]))
        facts[name].add(row)

    unequal = []
    for i, left in enumerate(constants):
        for right in constants[i + 1:]:
            if rng.random() >= unknown_fraction:
                unequal.append((left, right))

    return CWDatabase(constants, dict(predicates), facts, unequal)


def _random_term(variables: Sequence[Variable], constants: Sequence[str], rng: random.Random) -> Term:
    if constants and rng.random() < 0.25:
        return Constant(rng.choice(list(constants)))
    return rng.choice(list(variables))


def _random_atom(
    predicates: Mapping[str, int],
    variables: Sequence[Variable],
    constants: Sequence[str],
    rng: random.Random,
) -> Formula:
    name = rng.choice(sorted(predicates))
    args = tuple(_random_term(variables, constants, rng) for __ in range(predicates[name]))
    return Atom(name, args)


def _random_formula(
    depth: int,
    predicates: Mapping[str, int],
    variables: list[Variable],
    constants: Sequence[str],
    rng: random.Random,
    allow_negation: bool,
) -> Formula:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.15 and len(variables) >= 2:
            left, right = rng.sample(variables, 2)
            atom: Formula = Equals(left, right)
        else:
            atom = _random_atom(predicates, variables, constants, rng)
        if allow_negation and rng.random() < 0.4:
            return Not(atom)
        return atom
    choice = rng.random()
    if choice < 0.35:
        return And(
            (
                _random_formula(depth - 1, predicates, variables, constants, rng, allow_negation),
                _random_formula(depth - 1, predicates, variables, constants, rng, allow_negation),
            )
        )
    if choice < 0.7:
        return Or(
            (
                _random_formula(depth - 1, predicates, variables, constants, rng, allow_negation),
                _random_formula(depth - 1, predicates, variables, constants, rng, allow_negation),
            )
        )
    # Quantify a fresh variable.
    fresh = Variable(f"q{len(variables)}")
    variables.append(fresh)
    body = _random_formula(depth - 1, predicates, variables, constants, rng, allow_negation)
    variables.pop()
    quantifier = Exists if rng.random() < 0.6 else Forall
    return quantifier((fresh,), body)


def random_query(
    predicates: Mapping[str, int],
    constants: Sequence[str] = (),
    arity: int = 1,
    depth: int = 2,
    seed: int | None = None,
    allow_negation: bool = True,
) -> Query:
    """Random query with *arity* head variables and bounded formula depth."""
    rng = random.Random(seed)
    head = [V(f"x{i}") for i in range(arity)]
    variables = list(head)
    formula = _random_formula(depth, predicates, variables, constants, rng, allow_negation)
    return Query(tuple(head), formula)


def random_positive_query(
    predicates: Mapping[str, int],
    constants: Sequence[str] = (),
    arity: int = 1,
    depth: int = 2,
    seed: int | None = None,
) -> Query:
    """Random *positive* query (no negation anywhere) — the Theorem 13 class."""
    return random_query(predicates, constants, arity, depth, seed, allow_negation=False)


def join_chain_query(
    predicates: Mapping[str, int],
    length: int = 3,
    closing_constant: str | None = None,
    shuffle: bool = False,
    seed: int | None = None,
    pattern: Sequence[str] | None = None,
) -> Query:
    """A join chain: ``(x0, xL) . exists x1..x(L-1). P1(x0,x1) & ... & PL(x(L-1),xL)``.

    Chains are the canonical join-heavy workload: every conjunct shares one
    variable with its neighbour, so evaluation cost is dominated by the join
    order the engine picks.  With *closing_constant* the last atom's second
    argument is that constant instead of ``xL`` (and the head is ``(x0,)``),
    making the tail highly selective — exactly the case where starting from
    the wrong end is expensive.  With ``shuffle=True`` the conjuncts appear
    in random order, the way a declarative query author writes them: a
    syntax-directed engine then joins adjacent-but-disconnected atoms into
    cross products, while a reordering optimizer recovers the connected
    order.  Only binary predicates are used; *pattern* fixes the exact
    predicate sequence (and hence the chain length) — useful when the schema
    is "typed" and only certain compositions produce nonempty joins.
    """
    binary = sorted(name for name, arity in predicates.items() if arity == 2)
    if not binary:
        raise ValueError("join_chain_query needs at least one binary predicate")
    if pattern is not None:
        unknown = [name for name in pattern if predicates.get(name) != 2]
        if unknown:
            raise ValueError(f"pattern names non-binary or undeclared predicates: {unknown}")
        length = len(pattern)
    if length < 1:
        raise ValueError("a join chain needs at least one atom")
    rng = random.Random(seed)
    variables = [V(f"x{i}") for i in range(length + 1)]
    atoms: list[Formula] = []
    for position in range(length):
        predicate = pattern[position] if pattern is not None else binary[rng.randrange(len(binary))]
        left: Term = variables[position]
        right: Term = variables[position + 1]
        if position == length - 1 and closing_constant is not None:
            right = Constant(closing_constant)
        atoms.append(Atom(predicate, (left, right)))
    if shuffle:
        rng.shuffle(atoms)
    body: Formula = atoms[0] if len(atoms) == 1 else And(tuple(atoms))
    if closing_constant is None:
        head = (variables[0], variables[length])
        bound = tuple(variables[1:length])
    else:
        head = (variables[0],)
        bound = tuple(variables[1:length])
    if bound:
        body = Exists(bound, body)
    return Query(head, body)


def join_heavy_workload(
    predicates: Mapping[str, int] | None = None,
    constants: Sequence[str] = (),
    chains: int = 4,
    length: int = 3,
    seed: int | None = None,
) -> list[tuple[str, Query]]:
    """A named mix of join-heavy queries for optimizer benchmarks and tests.

    Contains plain chains, constant-closed chains (selective tails), a
    co-worker style self-join, and an equality-linking query whose naive
    plan is a filtered active-domain product.  All queries are positive, so
    the approximation is complete on them (Theorem 13) and the workload
    isolates pure join/execution cost.
    """
    if predicates is None:
        predicates = EMPLOYEE_PREDICATES
    rng = random.Random(seed)
    binary = sorted(name for name, arity in predicates.items() if arity == 2)
    if not binary:
        raise ValueError("join_heavy_workload needs at least one binary predicate")
    # On the employee schema, compose predicates so every join step is
    # nonempty: employee -EMP_DEPT-> department -DEPT_MGR-> manager -> ...,
    # optionally ending at a salary band.  Other schemas fall back to random
    # predicate choices.
    typed = set(predicates) >= set(EMPLOYEE_PREDICATES)

    def chain_pattern(chain_length: int, close_with_salary: bool) -> tuple[str, ...] | None:
        if not typed:
            return None
        cycle = ("EMP_DEPT", "DEPT_MGR")
        names = [cycle[i % 2] for i in range(chain_length)]
        if close_with_salary and chain_length >= 2 and chain_length % 2 == 0:
            names[-1] = "EMP_SAL"
        return tuple(names)

    workload: list[tuple[str, Query]] = []
    for index in range(chains):
        workload.append(
            (
                f"chain{index}",
                join_chain_query(
                    predicates,
                    length,
                    shuffle=True,
                    seed=rng.randrange(1 << 30),
                    pattern=chain_pattern(length, close_with_salary=index % 2 == 1),
                ),
            )
        )
        if constants:
            closing = constants[rng.randrange(len(constants))]
            workload.append(
                (
                    f"chain{index}_closed",
                    join_chain_query(
                        predicates,
                        length,
                        closing_constant=closing,
                        shuffle=True,
                        seed=rng.randrange(1 << 30),
                        pattern=chain_pattern(length, close_with_salary=False),
                    ),
                )
            )
    # Co-occurrence (self-join): pairs sharing a right-hand neighbour.  On
    # the employee schema, join the large membership relation and filter on
    # salary band; generically, fall back to the first binary predicates.
    first = "EMP_DEPT" if typed else binary[0]
    filter_predicate = "EMP_SAL" if typed else binary[min(1, len(binary) - 1)]
    x, y, z = V("x"), V("y"), V("z")
    workload.append(
        ("co_occurrence", Query((x, y), Exists((z,), And((Atom(first, (x, z)), Atom(first, (y, z)))))))
    )
    if constants:
        # Filtered co-occurrence: the selective constant atom appears last in
        # the written order, first in a good join order.
        anchor = constants[rng.randrange(len(constants))]
        workload.append(
            (
                "co_occurrence_filtered",
                Query(
                    (x, y),
                    Exists(
                        (z,),
                        And(
                            (
                                Atom(first, (x, z)),
                                Atom(first, (y, z)),
                                Atom(filter_predicate, (x, Constant(anchor))),
                            )
                        ),
                    ),
                ),
            )
        )
    # Equality link: naively an active-domain product filtered by x = y.
    workload.append(
        (
            "equality_link",
            Query((x, y), And((Exists((z,), Atom(first, (x, z))), Equals(x, y)))),
        )
    )
    return workload


#: Schema of the skewed star workload: two fact relations linked through a
#: shared key, plus an event log carrying a rare selective tag.
SKEWED_PREDICATES: dict[str, int] = {"FACT_A": 2, "FACT_B": 2, "EVENT": 2}


def skewed_star_database(
    n_entities: int = 260,
    n_links: int = 80,
    n_hubs: int = 6,
    n_targets: int = 15,
    facts_per_entity: int = 8,
    n_tags: int = 8,
    n_hot: int = 4,
    hub_fraction: float = 0.3,
    seed: int | None = None,
) -> CWDatabase:
    """A skewed join-heavy instance where uniformity assumptions mislead.

    ``FACT_A(x, z)`` links entities to link values, of which the first
    *n_hubs* are **hubs** carrying ``hub_fraction`` of all links;
    ``FACT_B(z, y)`` fans every hub out to *every* target but gives tail
    links a single target each.  ``EVENT(x, tag)`` is an event log: every
    entity carries every one of the ``n_tags - 1`` dense tags, and only
    *n_hot* entities additionally carry ``'hot'`` — so the uniform
    per-column model estimates a ``tag='hot'`` selection at roughly
    ``n_entities * (n_tags - 1) / n_tags`` rows (~*n_entities*, badly wrong)
    and, as long as ``FACT_B`` stays smaller than that, a static cost-based
    optimizer misorders queries anchored on the hot tag: it joins the fact
    relations first and streams a hub-blown intermediate.  Hot entities link
    only to tail values, keeping the true answers small.  Semi-join
    reduction is designed to repair this workload shape.

    The database is fully specified (every pair of constants distinct), so
    the Section 5 approximation is exact on it and every engine must agree.
    """
    rng = random.Random(seed)
    entities = [f"x{i}" for i in range(n_entities)]
    links = [f"z{i}" for i in range(n_links)]
    hubs = links[:n_hubs]
    tails = links[n_hubs:]
    targets = [f"y{i}" for i in range(n_targets)]
    tags = ["hot"] + [f"tag{i}" for i in range(max(n_tags - 1, 1))]
    hot = entities[:n_hot]

    facts: dict[str, set[tuple[str, ...]]] = {"FACT_A": set(), "FACT_B": set(), "EVENT": set()}
    for entity in entities:
        is_hot = entity in hot
        for __ in range(facts_per_entity):
            if not is_hot and rng.random() < hub_fraction:
                facts["FACT_A"].add((entity, rng.choice(hubs)))
            else:
                facts["FACT_A"].add((entity, rng.choice(tails)))
        if is_hot:
            facts["EVENT"].add((entity, "hot"))
        for tag in tags[1:]:
            facts["EVENT"].add((entity, tag))
    for hub in hubs:
        for target in targets:
            facts["FACT_B"].add((hub, target))
    for index, tail in enumerate(tails):
        facts["FACT_B"].add((tail, targets[index % n_targets]))

    constants = tuple(entities + links + targets + tags)
    return CWDatabase.from_unknowns(constants, dict(SKEWED_PREDICATES), facts)


def skewed_adaptive_workload() -> list[tuple[str, Query]]:
    """Queries over :func:`skewed_star_database` that reward adaptivity.

    Every query anchors on the rare ``'hot'`` tag whose selectivity the
    uniform model overestimates ~100-fold, so the static optimizer either
    misorders the joins (the chains) or skips semi-join reduction it should
    have applied (the self-joins).  All queries are positive, hence complete
    for the approximation (Theorem 13), and small-answered, so correctness
    checks against ground truth stay cheap.
    """
    x, w, y, z, z2 = V("x"), V("w"), V("y"), V("z"), V("z2")
    hot = Constant("hot")
    workload: list[tuple[str, Query]] = [
        (
            "hot_chain",
            Query(
                (x, y),
                Exists(
                    (z,),
                    And((Atom("FACT_A", (x, z)), Atom("FACT_B", (z, y)), Atom("EVENT", (x, hot)))),
                ),
            ),
        ),
        (
            "hot_chain_shuffled",
            Query(
                (y,),
                Exists(
                    (x, z),
                    And((Atom("FACT_B", (z, y)), Atom("EVENT", (x, hot)), Atom("FACT_A", (x, z)))),
                ),
            ),
        ),
        (
            "hot_co_links",
            Query(
                (x, w),
                Exists(
                    (z,),
                    And((Atom("FACT_A", (x, z)), Atom("FACT_A", (w, z)), Atom("EVENT", (x, hot)))),
                ),
            ),
        ),
        (
            "hot_targets_shared",
            Query(
                (x, y),
                Exists(
                    (z, z2),
                    And(
                        (
                            Atom("EVENT", (x, hot)),
                            Atom("FACT_A", (x, z)),
                            Atom("FACT_B", (z, y)),
                            Atom("FACT_B", (z2, y)),
                        )
                    ),
                ),
            ),
        ),
        (
            "hot_link_targets",
            Query(
                (z, y),
                Exists(
                    (x,),
                    And((Atom("EVENT", (x, hot)), Atom("FACT_A", (x, z)), Atom("FACT_B", (z, y)))),
                ),
            ),
        ),
    ]
    return workload


#: Schema of the employee scenario from the paper's introduction.
EMPLOYEE_PREDICATES: dict[str, int] = {"EMP_DEPT": 2, "DEPT_MGR": 2, "EMP_SAL": 2}

_SALARY_BANDS = ("low", "mid", "high")


def employee_database(
    n_employees: int,
    n_departments: int | None = None,
    unknown_manager_fraction: float = 0.25,
    seed: int | None = None,
) -> CWDatabase:
    """The employee/department/manager workload of the paper's introduction.

    Every employee belongs to a department (``EMP_DEPT``) and has a salary
    band (``EMP_SAL``); every department has a manager (``DEPT_MGR``).  A
    fraction of the managers are *null values*: fresh constants whose
    identity is unknown (no uniqueness axioms link them to the named
    employees), which is exactly the incomplete-information situation the
    paper's logical databases are designed to model.
    """
    rng = random.Random(seed)
    if n_departments is None:
        n_departments = max(1, n_employees // 5)
    employees = [f"emp{i}" for i in range(n_employees)]
    departments = [f"dept{i}" for i in range(n_departments)]

    facts: dict[str, set[tuple[str, ...]]] = {"EMP_DEPT": set(), "DEPT_MGR": set(), "EMP_SAL": set()}
    null_managers: list[str] = []
    known_constants = employees + departments + list(_SALARY_BANDS)

    for index, employee in enumerate(employees):
        department = departments[index % n_departments]
        facts["EMP_DEPT"].add((employee, department))
        facts["EMP_SAL"].add((employee, rng.choice(_SALARY_BANDS)))

    for index, department in enumerate(departments):
        if employees and rng.random() >= unknown_manager_fraction:
            manager = rng.choice(employees)
        else:
            manager = f"mgr_null{index}"
            null_managers.append(manager)
        facts["DEPT_MGR"].add((department, manager))

    constants = tuple(known_constants + null_managers)

    # Known constants are pairwise distinct; null managers have no uniqueness
    # axioms at all (their identity could coincide with any employee or with
    # each other): they are the unknown values U, with an empty NE'.
    return CWDatabase.from_unknowns(constants, dict(EMPLOYEE_PREDICATES), facts, unknown=null_managers)
