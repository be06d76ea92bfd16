"""Property tests: the optimizer never changes an answer.

Random queries over random ``Ph2`` instances (the workload generators of
:mod:`repro.workloads.generators`) are evaluated three ways —

* the naive compiled plan on the naive executor (indexes off),
* the optimized plan on the indexed executor,
* the direct Tarskian evaluator (ground truth; on ``Ph1``/``Ph2`` databases
  the active domain equals the domain, so the algebra translation computes
  the same answer) —

and all three answer sets must coincide, on both ``NE`` encodings.  Seeds
are fixed so failures are reproducible.
"""

import pytest

from repro.approx.rewrite import rewrite_query
from repro.logic.analysis import is_first_order
from repro.logical.ph import ph2
from repro.physical.algebra import execute
from repro.physical.batch import execute_batched
from repro.physical.compiler import compile_query
from repro.physical.evaluator import evaluate_query
from repro.physical.optimizer import optimize
from repro.workloads.generators import (
    EMPLOYEE_PREDICATES,
    employee_database,
    join_heavy_workload,
    random_cw_database,
    random_query,
)

PREDICATES = {"P": 2, "Q": 1, "R": 2}


def _check_query(storage, query, label):
    plan = compile_query(query, storage)
    optimized = optimize(plan, storage)
    naive = execute(plan, storage, use_indexes=False)
    indexed = execute(optimized, storage)
    assert indexed.columns == naive.columns, label
    assert indexed.rows == naive.rows, label
    assert naive.rows == evaluate_query(storage, query), label


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("virtual_ne", [False, True], ids=["materialized-ne", "virtual-ne"])
def test_random_queries_agree_across_engines(seed, virtual_ne):
    logical = random_cw_database(5, PREDICATES, 8, unknown_fraction=0.4, seed=seed)
    storage = ph2(logical, virtual_ne=virtual_ne)
    for arity in (1, 2):
        query = random_query(
            PREDICATES, constants=logical.constants[:2], arity=arity, depth=3, seed=seed * 7 + arity
        )
        rewritten = rewrite_query(query, "direct")
        if not is_first_order(rewritten.formula):
            continue
        _check_query(storage, rewritten, f"seed={seed} arity={arity} virtual_ne={virtual_ne}")


@pytest.mark.parametrize("seed", range(6))
def test_join_heavy_workload_agrees_across_engines(seed):
    logical = random_cw_database(6, PREDICATES, 14, unknown_fraction=0.3, seed=100 + seed)
    storage = ph2(logical)
    for name, query in join_heavy_workload(
        PREDICATES, constants=logical.constants[:2], chains=2, length=3, seed=seed
    ):
        rewritten = rewrite_query(query, "direct")
        _check_query(storage, rewritten, f"workload seed={seed} query={name}")


def test_employee_join_workload_agrees_across_engines_and_executors():
    """The typed employee chains: naive and optimized plans, on the tuple and
    the vectorized executor at every batch size, equal Tarskian truth."""
    storage = ph2(employee_database(16, seed=3))
    for name, query in join_heavy_workload(
        EMPLOYEE_PREDICATES, constants=("dept0", "dept1"), chains=2, length=2, seed=9
    ):
        rewritten = rewrite_query(query, "direct")
        naive_plan = compile_query(rewritten, storage)
        plan = optimize(naive_plan, storage)
        truth = evaluate_query(storage, rewritten)
        assert execute(naive_plan, storage, use_indexes=False, vectorize=False).rows == truth, name
        assert execute(plan, storage, vectorize=False).rows == truth, name
        for batch_rows in (1, 7, 1024):
            assert execute_batched(plan, storage, batch_rows=batch_rows).rows == truth, name
        assert execute(plan, storage).rows == truth, name


def test_positive_queries_need_no_rewrite_and_agree():
    logical = random_cw_database(5, PREDICATES, 10, unknown_fraction=0.2, seed=77)
    storage = ph2(logical)
    for seed in range(15):
        query = random_query(
            PREDICATES, constants=logical.constants[:2], arity=1, depth=2, seed=seed, allow_negation=False
        )
        _check_query(storage, query, f"positive seed={seed}")
