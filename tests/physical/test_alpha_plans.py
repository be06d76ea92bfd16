"""``alpha_P`` compiled to plan operators (Lemma 10 as anti-join, join, select).

The compiler translates an extension atom into

    Cand(vars) |> project_vars select_exact( P(y) |x|_i PE(t_i, y_i) )

and evaluates nothing at compile time.  The oracle throughout is the paper's
decision procedure, untouched by the serving path:
:func:`repro.approx.alpha.disagree` / :meth:`~repro.approx.alpha.AlphaAtom.holds`
through the Tarskian evaluator.  The random-database half of the argument is
``tests/property/test_prop_negation.py``; this file pins the benchmark
database's plans, bounds and prepared-template behaviour.
"""

from __future__ import annotations

import time
from itertools import product

import pytest

from repro.approx.alpha import AlphaAtom, disagree
from repro.approx.rewrite import rewrite_query
from repro.errors import UnsupportedFormulaError
from repro.logic.formulas import ExtensionAtom
from repro.logic.parser import parse_query
from repro.logic.queries import Query
from repro.logic.terms import Variable
from repro.logical.ph import ph2
from repro.observability.explain import PlanProfiler
from repro.physical.algebra import execute, node_label, plan_to_text
from repro.physical.compiler import _MayCoincide, compile_query
from repro.physical.evaluator import evaluate_query
from repro.physical.optimizer import optimize
from repro.physical.plan import (
    ActiveDomain,
    AntiJoin,
    LiteralTable,
    plan_parameters,
    substitute_plan_parameters,
)
from repro.workloads.generators import employee_database

# The two negation shapes of E21's ``negation_approx`` (guards left off).
NEG_MEMBERS = "(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, {k})"
NEG_MANAGERS = "(m) . ~DEPT_MGR({k}, m)"
TWO_VARIABLES = "(d, m) . EMP_DEPT('emp1', d) & ~DEPT_MGR(d, m)"


@pytest.fixture(scope="module")
def storage():
    """The benchmark database: 378 constants, 60 ``DEPT_MGR`` rows, 15 null managers."""
    return ph2(employee_database(300, seed=21))


def _nodes(plan):
    yield plan
    for child in plan.children():
        yield from _nodes(child)


def _plan(storage, text, optimized=True):
    plan = compile_query(rewrite_query(parse_query(text), "direct"), storage)
    return optimize(plan, storage) if optimized else plan


GOLDEN_NEG_MEMBERS = """\
Project(x)
  AntiJoin(d=d)
    Rename(__col0->x, __col1->d)
      Scan EMP_DEPT(__col0, __col1)
    Project(d)
      Select[(d, __t1) may equal (__y0, __y1)]
        Project(__y0, __y1, d, __t1)
          NaturalJoin
            NaturalJoin
              IndexScan ~NE(__t1, __y1; __t1='emp7')
              Scan DEPT_MGR(__y0, __y1)
            SemiJoin(d=d)
              Scan ~NE(d, __y0)
              Project(d)
                Rename(__col0->x, __col1->d)
                  Scan EMP_DEPT(__col0, __col1)"""

GOLDEN_NEG_MANAGERS = """\
AntiJoin(m=m)
  ActiveDomain(m)
  Project(m)
    Select[(__t0, m) may equal (__y0, __y1)]
      Project(__y0, __y1, __t0, m)
        NaturalJoin
          NaturalJoin
            IndexScan ~NE(__t0, __y0; __t0='dept3')
            Scan DEPT_MGR(__y0, __y1)
          Scan ~NE(m, __y1)"""


class TestCompiledShape:
    @pytest.mark.parametrize(
        "text, expected",
        [
            (NEG_MEMBERS.format(k="'emp7'"), GOLDEN_NEG_MEMBERS),
            (NEG_MANAGERS.format(k="'dept3'"), GOLDEN_NEG_MANAGERS),
        ],
    )
    def test_golden_plans_of_the_benchmark_shapes(self, storage, text, expected):
        assert plan_to_text(_plan(storage, text)) == expected

    @pytest.mark.parametrize("optimized", [False, True])
    @pytest.mark.parametrize("text", [NEG_MEMBERS.format(k="'emp7'"), NEG_MANAGERS.format(k="'dept3'"), TWO_VARIABLES])
    def test_nothing_is_baked_at_compile_time(self, storage, text, optimized):
        plan = _plan(storage, text, optimized)
        assert not [node for node in _nodes(plan) if isinstance(node, LiteralTable) and node.columns]
        assert any(isinstance(node, AntiJoin) for node in _nodes(plan))

    def test_candidates_are_active_domain_columns(self, storage):
        plan = _plan(storage, TWO_VARIABLES, optimized=False)
        anti = next(node for node in _nodes(plan) if isinstance(node, AntiJoin))
        assert {node.column for node in _nodes(anti.source) if isinstance(node, ActiveDomain)} == {"d", "m"}
        assert anti.pairs == (("d", "d"), ("m", "m"))

    def test_two_compilations_give_equal_plans(self, storage):
        text = NEG_MEMBERS.format(k="'emp7'")
        first, second = _plan(storage, text), _plan(storage, text)
        assert first == second and hash(first) == hash(second)

    def test_unary_atoms_need_no_exact_filter(self, ripper_storage):
        plan = _plan(ripper_storage, "(x) . ~MURDERER(x)", optimized=False)
        assert "may equal" not in plan_to_text(plan)

    def test_only_provable_absence_atoms_compile(self, storage):
        class Opaque(ExtensionAtom):
            args = (Variable("x"),)

        with pytest.raises(UnsupportedFormulaError, match="alpha_P"):
            compile_query(Query((Variable("x"),), Opaque()), storage)


@pytest.fixture(scope="module")
def ripper_storage():
    from repro.workloads.scenarios import jack_the_ripper_database

    return ph2(jack_the_ripper_database())


class TestAnswers:
    @pytest.mark.parametrize(
        "text",
        [
            NEG_MEMBERS.format(k="'emp7'"),
            NEG_MEMBERS.format(k="'mgr_null11'"),
            NEG_MANAGERS.format(k="'dept3'"),
            NEG_MANAGERS.format(k="'dept11'"),  # managed by a null
            "() . ~DEPT_MGR('dept3', 'emp7')",
            "(d) . ~DEPT_MGR(d, d)",
        ],
    )
    def test_both_executors_agree_with_tarskian_evaluation(self, storage, text):
        rewritten = rewrite_query(parse_query(text), "direct")
        truth = evaluate_query(storage, rewritten)
        for optimized in (False, True):
            plan = _plan(storage, text, optimized)
            assert execute(plan, storage, vectorize=False).rows == truth
            assert execute(plan, storage, vectorize=True).rows == truth

    def test_column_wise_prefilter_alone_is_not_exact(self, storage):
        # ('mgr_null11', 'emp145') against the stored ('dept11', 'mgr_null11'):
        # PE holds in both columns, yet the merged component {mgr_null11,
        # dept11, emp145} contains the NE pair dept11/emp145.
        candidate, stored = ("mgr_null11", "emp145"), ("dept11", "mgr_null11")
        possibly_equal = storage.possibly_equal()
        assert all(pair in possibly_equal for pair in zip(candidate, stored))
        assert disagree(candidate, stored, storage.relation("NE"))
        row = dict(zip(("d", "m", "__y0", "__y1"), candidate + stored))
        assert not _MayCoincide((("d", "__y0"), ("m", "__y1")), possibly_equal)(row)

    def test_exact_filter_is_lemma_10(self):
        """``_MayCoincide`` == ``not disagree`` on every pair of PE-compatible triples."""
        from repro.logical.database import CWDatabase

        database = CWDatabase(("a", "b", "c", "d", "e"), {"P": 1}, {}, [("a", "b"), ("c", "d"), ("a", "e")])
        storage = ph2(database)
        domain = sorted(storage.active_domain())
        possibly_equal = storage.possibly_equal()
        unequal = storage.relation("NE")
        columns = (("c0", "d0"), ("c1", "d1"), ("c2", "d2"))
        check = _MayCoincide(columns, possibly_equal)
        verdicts = set()
        for c in product(domain, repeat=3):
            for d in product(domain, repeat=3):
                if all(pair in possibly_equal for pair in zip(c, d)):
                    row = dict(zip(("c0", "c1", "c2", "d0", "d1", "d2"), c + d))
                    assert check(row) == (not disagree(c, d, unequal)), (c, d)
                    verdicts.add(check(row))
        assert verdicts == {True, False}


class TestTwoVariableAtom:
    def test_answers_in_under_a_second_with_bounded_intermediates(self, storage):
        """38.4 s of ``AlphaAtom.holds`` inside ``compile_query`` before this change."""
        started = time.perf_counter()
        plan = _plan(storage, TWO_VARIABLES)
        profiler = PlanProfiler()
        rows = execute(plan, storage, profiler=profiler).rows
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0

        department = next(row[1] for row in storage.relation("EMP_DEPT") if row[0] == "emp1")
        atom = AlphaAtom("DEPT_MGR", (Variable("d"), Variable("m")))
        assert rows == frozenset(
            (department, manager)
            for manager in storage.active_domain()
            if atom.holds(storage, (department, manager))
        )

        bound = len(storage.active_domain()) * len(storage.relation("DEPT_MGR"))

        def emitted(node):
            yield node["operator"], node["rows"] or 0
            for child in node["children"]:
                yield from emitted(child)

        assert all(count <= bound for __, count in emitted(profiler.tree(node_label)))

    def test_sibling_keys_restrict_the_candidate_columns(self, storage):
        plan = _plan(storage, TWO_VARIABLES)
        anti = next(node for node in _nodes(plan) if isinstance(node, AntiJoin))
        assert plan_to_text(anti.source).startswith("CrossProduct\n  Rename(__col1->d)")
        assert {node.column for node in _nodes(plan) if isinstance(node, ActiveDomain)} == {"m"}

    def test_without_sip_the_plan_is_still_right(self, storage):
        plan = optimize(_plan(storage, TWO_VARIABLES, optimized=False), storage, sip=False)
        assert execute(plan, storage).rows == execute(_plan(storage, TWO_VARIABLES), storage).rows


class TestTemplates:
    def test_a_parameter_is_a_binding_on_possibly_equal(self, storage):
        template = _plan(storage, NEG_MEMBERS.format(k="$k"))
        assert plan_parameters(template) == ("k",)
        for constant in ("emp7", "mgr_null11"):
            bound = substitute_plan_parameters(template, {"k": storage.constant_value(constant)})
            adhoc = _plan(storage, NEG_MEMBERS.format(k=f"'{constant}'"))
            assert plan_parameters(bound) == ()
            assert execute(bound, storage).rows == execute(adhoc, storage).rows
