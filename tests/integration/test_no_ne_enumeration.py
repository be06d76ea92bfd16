"""Nothing on the boot or serving path enumerates ``NE`` or the uniqueness pairs.

``NE`` is read off the ``U``/``NE'`` encoding (Section 5, end) and compiled
plans read its complement ``PE``, so the quadratic relation is never built.
These tests make enumerating it an error — ``VirtualNERelation.__iter__``,
``CWDatabase.unequal_pairs`` and ``PE``'s ``PossiblyEqualRelation.__iter__``
raise — and then drive the benchmark
database (``employee_database(300, seed=21)``) through every stage a server
and a cluster go through: CSV round trip, registration, one request of every
E21 template shape ad hoc and prepared, statistics, partitioning and the
snapshot store.  Answers are checked against an oracle computed beforehand
on a reference ``Ph2`` whose ``NE`` is materialized.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.approx.rewrite import rewrite_query
from repro.cluster.partition import PartitionScheme, partition_database
from repro.cluster.store import SnapshotStore
from repro.logic.parser import parse_query
from repro.logic.template import bind_query, query_parameters
from repro.logical.database import CWDatabase
from repro.logical.ph import ph2
from repro.logical.unknowns import VirtualNERelation
from repro.observability.explain import render_profile
from repro.physical.algebra import execute
from repro.physical.compiler import compile_query
from repro.physical.csvio import load_cw_database, save_cw_database
from repro.physical.database import PossiblyEqualRelation
from repro.physical.statistics import statistics_payload
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, answers_to_wire
from repro.workloads.generators import employee_database
from tests.property.strategies import materialized_ph2

ROOT = Path(__file__).resolve().parents[2]


def _e21_shapes():
    spec = importlib.util.spec_from_file_location("e21_workloads", ROOT / "benchmarks" / "e21" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.SHAPES


SHAPES = _e21_shapes()


def _binding(database: CWDatabase, names) -> dict[str, str]:
    emp_dept = sorted(database.facts_for("EMP_DEPT"))
    dept_mgr = sorted(database.facts_for("DEPT_MGR"))
    salaries = dict(database.facts_for("EMP_SAL"))
    values = {
        "g": "emp1", "gb": salaries["emp1"], "h": "emp2", "hd": dict(emp_dept)["emp2"],
        "a": emp_dept[3][0], "b": emp_dept[3][1], "c": dept_mgr[0][0], "d": dept_mgr[0][1],
    }  # fmt: skip
    return {name: values.get(name, "emp3") for name in names}


@pytest.fixture(scope="module")
def database():
    return employee_database(300, seed=21)


@pytest.fixture(scope="module")
def reference(database):
    return materialized_ph2(database)


@pytest.fixture(scope="module")
def oracle(database, reference):
    """Per shape: the binding, the ad-hoc text and E21's own oracle answer on the reference."""
    cases = {}
    for name, shape in SHAPES.items():
        template = parse_query(shape.template)
        binding = _binding(database, query_parameters(template))
        text = str(bind_query(template, binding))
        if shape.oracle == "tarski":
            rows = ApproximateEvaluator(engine="tarski").answers_on_storage(reference, parse_query(text))
        else:
            rows = execute(compile_query(rewrite_query(parse_query(text)), reference), reference, vectorize=False).rows
        cases[name] = (binding, text, answers_to_wire(rows))
    return cases


@pytest.fixture(scope="module")
def refused():
    """Enumerating ``NE``, ``PE`` or the uniqueness pairs raises, for the rest of the module."""

    def refuse(*args):
        raise AssertionError("the quadratic NE (or its complement PE) was enumerated")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VirtualNERelation, "__iter__", refuse)
        patch.setattr(PossiblyEqualRelation, "__iter__", refuse)
        patch.setattr(CWDatabase, "unequal_pairs", refuse)
        yield


@pytest.fixture(scope="module")
def served(database, reference, oracle, refused, tmp_path_factory):
    loaded = load_cw_database(save_cw_database(database, tmp_path_factory.mktemp("csv") / "emp"))
    assert loaded == database
    service = QueryService()
    service.register("emp", loaded)
    yield service
    service.close()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_e21_shape_is_served_without_enumerating_ne(served, oracle, shape):
    binding, text, truth = oracle[shape]
    adhoc = served.execute(QueryRequest("emp", text, "approx"))
    assert [list(row) for row in adhoc.answers["approximate"]] == truth
    statement = served.prepare("emp", SHAPES[shape].template, "approx")
    prepared = served.execute_prepared(statement.statement_id, binding)
    assert prepared.answers == adhoc.answers


def test_statistics_partition_and_store_never_enumerate_ne(database, refused, tmp_path):
    payload = statistics_payload(ph2(database))
    assert payload["relations"]["NE"]["rows"] == 131_406
    layout = partition_database("emp", database, PartitionScheme(n_shards=2))
    for shard in layout.shards:
        assert (shard.unknown, shard.explicit) == (database.unknown, database.explicit)
    store = SnapshotStore(tmp_path / "store")
    store.put("emp", database)
    snapshot = store.load("emp")
    assert snapshot.database == database
    assert snapshot.statistics["relations"] == payload["relations"]


@pytest.mark.parametrize("excluded, rows", [("emp3", 5), ("emp61", 4)])
def test_negated_equality_explains_as_an_anti_join_against_pe(served, reference, excluded, rows):
    text = f"(x) . EMP_DEPT(x, 'dept1') & ~(x = '{excluded}')"
    response = served.execute(QueryRequest("emp", text, "approx", profile=True))
    explain = render_profile(response.profile)
    assert "AntiJoin" in explain and "~NE(" in explain
    assert "Scan NE" not in explain and " NE(" not in explain
    truth = ApproximateEvaluator(engine="tarski").answers_on_storage(reference, parse_query(text))
    assert response.answer_set("approximate") == truth
    assert (excluded,) not in truth and len(truth) == rows
