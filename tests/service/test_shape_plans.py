"""One plan per query shape: ad-hoc constants become parameters.

Every expected value below is what the service answered (or raised) while
each ad-hoc text still got a plan of its own, so these tests pin that
lifting constants out of a query changes how often the expression side is
paid, never what a request returns.
"""

from contextlib import closing

import pytest

from repro.approx.evaluator import ApproximateEvaluator
from repro.approx.rewrite import rewrite_query
from repro.errors import DatabaseError, UnboundParameterError
from repro.logic.parser import parse_query
from repro.logic.printer import query_to_text
from repro.logic.template import bind_query, lift_constants, query_parameters
from repro.logical.ph import ph2
from repro.physical.algebra import execute
from repro.physical.compiler import compile_query
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, answers_to_wire
from repro.service.server import running_server
from repro.workloads.generators import employee_database
from repro.workloads.traffic import SWEEP_TEMPLATE

DEPT0 = (("emp0",), ("emp10",), ("emp2",), ("emp4",), ("emp6",), ("emp8",))
DEPT1 = (("emp1",), ("emp11",), ("emp3",), ("emp5",), ("emp7",), ("emp9",))


@pytest.fixture(scope="module")
def database():
    # Twelve employees, two departments; dept1's manager is the null
    # 'mgr_null1', the one constant in U.
    database = employee_database(12, seed=21)
    assert database.unknown == frozenset({"mgr_null1"})
    return database


@pytest.fixture
def service(database):
    service = QueryService(answer_cache_capacity=0)
    service.register("emp", database)
    yield service
    service.close()


def _approx(service, text):
    return service.execute(QueryRequest("emp", text, "approx")).answers["approximate"]


class TestLift:
    def test_lift_is_the_inverse_of_bind(self):
        query = parse_query("(x) . EMP_DEPT(x, 'dept0') & EMP_SAL('emp1', 'mid') & ~('emp1' = x)")
        template, values = lift_constants(query)
        assert query_to_text(template) == "(x) . EMP_DEPT(x, $1) & EMP_SAL($2, $3) & ~$2 = x"
        assert values == {"1": "dept0", "2": "emp1", "3": "mid"}
        assert bind_query(template, values) == query

    def test_one_parameter_per_distinct_constant(self):
        same, values = lift_constants(parse_query("() . 'a' = 'a'"))
        assert query_to_text(same) == "() . $1 = $1" and values == {"1": "a"}
        different, values = lift_constants(parse_query("() . 'a' = 'b'"))
        assert query_to_text(different) == "() . $1 = $2" and values == {"1": "a", "2": "b"}

    def test_a_query_without_constants_is_its_own_shape(self):
        query = parse_query("(x) . exists d. EMP_DEPT(x, d)")
        assert lift_constants(query) == (query, {})

    def test_lifted_names_cannot_be_written_by_a_user(self):
        template, __ = lift_constants(parse_query("(x) . EMP_DEPT(x, 'dept0')"))
        with pytest.raises(Exception):
            parse_query(query_to_text(template))


class TestHazards:
    def test_constant_equalities_are_decided_per_binding(self, service):
        for first, second in (("emp1", "emp2"), ("emp3", "emp4")):
            text = f"(x) . EMP_DEPT(x, 'dept0') & '{first}' = '{second}'"
            assert _approx(service, text) == ()
            assert _approx(service, f"() . '{first}' = '{second}'") == ()
        for same in ("emp1", "emp3"):
            assert _approx(service, f"(x) . EMP_DEPT(x, 'dept0') & '{same}' = '{same}'") == DEPT0
            assert _approx(service, f"() . '{same}' = '{same}'") == ((),)

    @pytest.mark.parametrize("warm", [False, True])
    def test_an_unknown_constant_fails_as_before(self, service, warm):
        if warm:  # the shape's plan is cached before the unknown constant arrives
            _approx(service, "(x) . EMP_DEPT(x, 'dept0')")
            _approx(service, "() . 'dept0' = 'dept0'")
        for text in ("(x) . EMP_DEPT(x, 'nope')", "() . 'nope' = 'nope'"):
            with pytest.raises(DatabaseError, match=r"^unknown constant symbol 'nope'$"):
                _approx(service, text)

    @pytest.mark.parametrize("method", ["approx", "exact", "both"])
    def test_a_parameter_in_an_ad_hoc_text_is_refused(self, service, method):
        message = (
            r"^query mentions unbound parameter\(s\) \$d — "
            r"bind them \(prepared execute, --param\) before evaluation$"
        )
        with pytest.raises(UnboundParameterError, match=message):
            service.execute(QueryRequest("emp", "(x) . EMP_DEPT(x, $d)", method))

    def test_negated_atoms_over_a_constant_in_u(self, service):
        shape = "(d) . exists x. EMP_DEPT(x, d) & ~DEPT_MGR(d, '{}')"
        assert _approx(service, shape.format("mgr_null1")) == ()
        assert _approx(service, shape.format("emp1")) == (("dept0",),)
        assert _approx(service, shape.format("mgr_null1")) == ()
        managed = _approx(service, "(m) . ~DEPT_MGR('mgr_null1', m)")
        assert ("dept1",) not in managed and ("dept0",) in managed and len(managed) == 15
        assert ("dept1",) in _approx(service, "(m) . ~DEPT_MGR('dept0', m)")

    def test_two_texts_of_one_shape_share_a_plan_not_an_answer(self, database):
        service = QueryService()
        service.register("emp", database)
        first = service.query("emp", "(x) . EMP_DEPT(x, 'dept0')")
        second = service.query("emp", "(x) . EMP_DEPT(x, 'dept1')")
        assert first.answers["approximate"] == DEPT0
        assert second.answers["approximate"] == DEPT1
        assert not second.cached
        stats = service.stats()
        assert stats.plan_cache["size"] == 1 and stats.plan_cache["hits"] == 1
        assert stats.answer_cache["size"] == 2
        assert service.query("emp", "(x) . EMP_DEPT(x, 'dept1')").cached
        service.close()

    def test_plan_cache_size_tracks_shapes_not_constants(self, database):
        service = QueryService()
        service.register("emp", database)
        employees = sorted({row[0] for row in database.facts_for("EMP_DEPT")})
        shapes = (
            "(x) . EMP_DEPT('{e}', x)",
            "(m) . exists d. EMP_DEPT('{e}', d) & DEPT_MGR(d, m)",
            "(x) . EMP_SAL('{e}', x) & EMP_DEPT('{e}', 'dept0')",
        )
        with running_server(service) as server, closing(ServiceClient(server.base_url)) as client:
            for employee in employees:
                for shape in shapes:
                    client.query("emp", shape.format(e=employee))
            stats = client.stats()
        assert stats.plan_cache["size"] == len(shapes)
        assert stats.plan_cache["misses"] == len(shapes)
        assert stats.answer_cache["size"] == len(shapes) * len(employees)
        service.close()


class TestParameterFreeTemplates:
    """A prepared template without parameters shares the ad-hoc text's shape."""

    TEMPLATE = "(x) . exists d. EMP_DEPT(x, d)"
    EVERYONE = tuple(sorted((f"emp{i}",) for i in range(12)))

    def test_in_process(self, service):
        statement = service.prepare("emp", self.TEMPLATE)
        for __ in range(2):
            prepared = service.execute_prepared(statement.statement_id, {})
            assert prepared.answers["approximate"] == self.EVERYONE
            assert _approx(service, self.TEMPLATE) == self.EVERYONE
        assert service.stats().plan_cache["size"] == 1

    def test_over_http(self, service):
        with running_server(service) as server, closing(ServiceClient(server.base_url)) as client:
            handle = client.prepare("emp", self.TEMPLATE)
            assert handle.execute({}).answers["approximate"] == self.EVERYONE
            adhoc = client.query("emp", self.TEMPLATE)
            assert adhoc.answers["approximate"] == self.EVERYONE
            assert handle.execute({}).answers["approximate"] == self.EVERYONE


#: Query shapes of every kind a request stream sends — point lookups, joins,
#: bulk joins, equality, negation over a constant of ``U`` and bare-atom
#: scatters — with the oracle that can afford to re-evaluate them: ``"tarski"``
#: is the direct Tarskian evaluator, ``"naive"`` the unoptimized compiled plan
#: on the tuple-at-a-time executor.  Neither shares the plan cache, the
#: optimizer or parameter substitution with the route under test.
_GUARD = " & EMP_SAL($g, $gb)"
_GUARDS = _GUARD + " & EMP_DEPT($h, $hd)"
SHAPES = {
    "lookup_dept": ("(x) . EMP_DEPT($k, x)" + _GUARD, "tarski"),
    "lookup_sal": ("(x) . EMP_SAL($k, x)" + _GUARD, "tarski"),
    "lookup_mgr": ("(x) . DEPT_MGR($d, x)" + _GUARD, "tarski"),
    "join_mgr": ("(m) . exists d. EMP_DEPT($k, d) & DEPT_MGR(d, m)" + _GUARD, "tarski"),
    "join_peers": ("(y) . exists d. EMP_DEPT($k, d) & EMP_DEPT(y, d)" + _GUARD, "naive"),
    "co_occurrence": ("(x, y) . exists z. EMP_DEPT(x, z) & EMP_DEPT(y, z)" + _GUARDS, "naive"),
    "co_salary": ("(x, y, s) . exists z. EMP_DEPT(x, z) & EMP_DEPT(y, z) & EMP_SAL(y, s)" + _GUARDS, "naive"),
    "chain4": (
        "(x0, x4) . exists x1 x2 x3. EMP_DEPT(x0, x1) & EMP_DEPT(x2, x1) & EMP_DEPT(x2, x3)"
        " & EMP_DEPT(x4, x3)" + _GUARDS,
        "naive",
    ),
    "equality_link": ("(x, y) . (exists z. EMP_DEPT(x, z)) & x = y" + _GUARDS, "naive"),
    "scan_dept": ("(x, y) . EMP_DEPT(x, y)" + _GUARDS, "naive"),
    "neg_members": ("(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, $m)" + _GUARD, "tarski"),
    "neg_managers": ("(m) . ~DEPT_MGR($d, m)" + _GUARD, "tarski"),
    "scatter_dept": ("() . EMP_DEPT($a, $b)", "tarski"),
    "conjunction": ("() . EMP_DEPT($a, $b) & DEPT_MGR($c, $m)", "tarski"),
}

#: Three bindings per shape; within each, every value is distinct, so all
#: three lift to one shape.  The third falsifies the guards and the bare atoms.
BINDINGS = (
    {"k": "emp1", "d": "dept0", "m": "emp0", "g": "emp2", "gb": "high", "h": "emp3", "hd": "dept1",
     "a": "emp5", "b": "dept1", "c": "dept0"},
    {"k": "emp4", "d": "dept1", "m": "emp5", "g": "emp7", "gb": "low", "h": "emp10", "hd": "dept0",
     "a": "emp6", "b": "dept0", "c": "dept1"},
    {"k": "emp6", "d": "dept0", "m": "emp9", "g": "emp8", "gb": "high", "h": "emp11", "hd": "dept0",
     "a": "emp3", "b": "dept0", "c": "dept1"},
)


def _bind(shape, binding):
    template = parse_query(SHAPES[shape][0])
    values = {name: binding[name] for name in query_parameters(template)}
    assert len(set(values.values())) == len(values)  # one lifted shape per binding
    return template, values, bind_query(template, values)


def _oracle(database, shape, query):
    storage = ph2(database)
    if SHAPES[shape][1] == "tarski":
        rows = ApproximateEvaluator(engine="tarski").answers_on_storage(storage, query)
    else:
        rows = execute(compile_query(rewrite_query(query), storage), storage, vectorize=False).rows
    return tuple(tuple(row) for row in answers_to_wire(rows))


class TestEveryShapeKind:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_ad_hoc_bindings_share_one_plan_and_match_the_oracle(self, service, database, shape):
        answers = set()
        for binding in BINDINGS:
            __, __, query = _bind(shape, binding)
            expected = _oracle(database, shape, query)
            assert _approx(service, query_to_text(query)) == expected
            answers.add(expected)
        assert len(answers) > 1  # the bindings really ask different questions
        plan_cache = service.stats().plan_cache
        assert plan_cache["size"] == 1 and plan_cache["hits"] == len(BINDINGS) - 1

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_prepared_bindings_match_the_oracle(self, service, database, shape):
        statement = service.prepare("emp", SHAPES[shape][0])
        for binding in BINDINGS:
            __, values, query = _bind(shape, binding)
            prepared = service.execute_prepared(statement.statement_id, values)
            assert prepared.answers["approximate"] == _oracle(database, shape, query)
        assert service.stats().plan_cache["size"] == 1
        assert service.stats().prepared["generic_plans"] == len(BINDINGS)


class TestServedExecution:
    """A served request runs exactly what an in-process request runs: the
    resource account the server opens for every request changes no access
    path."""

    @pytest.mark.parametrize(
        "template",
        [SHAPES["join_mgr"][0], SWEEP_TEMPLATE.replace("$e", "$k") + _GUARD],
        ids=["join_mgr", "sweep"],
    )
    def test_same_index_calls_as_in_process(self, service, index_calls, template):
        parsed = parse_query(template)
        query = query_to_text(
            bind_query(parsed, {name: BINDINGS[0][name] for name in query_parameters(parsed)})
        )
        request = QueryRequest("emp", query, "approx")
        service.execute(request)  # plan the shape
        index_calls.clear()
        expected = service.execute(request).answers
        in_process = list(index_calls)
        # Both shapes join a renamed DEPT_MGR build side through its index.
        assert ("columnar", ("DEPT_MGR", (0,)), []) in in_process
        index_calls.clear()
        with running_server(service) as server, closing(ServiceClient(server.base_url)) as client:
            assert client.query("emp", query).answers == expected
        assert index_calls == in_process
