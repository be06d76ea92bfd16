"""Wire error unification: stable codes ↔ the typed exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors
from repro.errors import (
    CapacityError,
    ParseError,
    ProtocolError,
    ReproError,
    ServiceError,
    UnboundParameterError,
    UnknownCursorError,
    UnknownDatabaseError,
    UnknownStatementError,
    WIRE_ERROR_CODES,
    error_for_code,
    wire_code,
)
from repro.service import QueryService, running_server
from repro.service.client import ServiceClient
from repro.service.protocol import ErrorResponse, QueryRequest, parse_wire, to_wire
from repro.workloads.scenarios import employee_intro_scenario


class TestCodeRegistry:
    def test_every_registered_class_round_trips(self):
        for code, cls in WIRE_ERROR_CODES.items():
            assert wire_code(cls("boom")) == code, cls
            rebuilt = error_for_code(code, "boom")
            assert isinstance(rebuilt, cls)
            assert "boom" in str(rebuilt)

    def test_every_library_exception_has_a_code(self):
        # Anything the library can raise must map to *some* stable code (its
        # own or an ancestor's) so no wire error degrades to "error".
        for name in dir(errors):
            cls = getattr(errors, name)
            if isinstance(cls, type) and issubclass(cls, ReproError):
                assert wire_code(cls("x")) in WIRE_ERROR_CODES

    def test_subclass_falls_back_to_nearest_ancestor(self):
        class Exotic(UnknownDatabaseError):
            pass

        assert wire_code(Exotic("x")) == "unknown_database"

    def test_unknown_code_degrades_to_service_error(self):
        rebuilt = error_for_code("flux-capacitor", "m")
        assert type(rebuilt) is ServiceError

    def test_specificity(self):
        assert wire_code(ParseError("x")) == "parse"
        assert wire_code(CapacityError("x")) == "capacity"
        assert wire_code(UnboundParameterError("x")) == "unbound_parameter"
        assert wire_code(UnknownStatementError("x")) == "unknown_statement"
        assert wire_code(UnknownCursorError("x")) == "unknown_cursor"


class TestErrorResponse:
    def test_from_exception_carries_code_and_kind(self):
        response = ErrorResponse.from_exception(UnknownDatabaseError("no such db"))
        assert response.code == "unknown_database"
        assert response.kind == "UnknownDatabaseError"
        assert parse_wire(to_wire(response)) == response

    def test_error_without_code_defaults(self):
        message = parse_wire({"type": "error", "v": 2, "error": "x"})
        assert message.code == "service"


class TestClientRaisesTyped:
    @pytest.fixture()
    def served(self):
        service = QueryService()
        service.register("emp", employee_intro_scenario().database)
        with running_server(service) as server:
            yield ServiceClient(server.base_url)
        service.close()

    def test_unknown_database(self, served):
        with pytest.raises(UnknownDatabaseError):
            served.query("atlantis", "(x) . P(x)")

    def test_parse_error(self, served):
        with pytest.raises(ParseError):
            served.query("emp", "((((")

    def test_unknown_statement(self, served):
        with pytest.raises(UnknownStatementError):
            served.execute_prepared("stmt-404", {})

    def test_unknown_cursor(self, served):
        with pytest.raises(UnknownCursorError):
            served.fetch_page("not-a-cursor", 0)

    def test_unbound_parameter(self, served):
        handle = served.prepare("emp", "(x) . EMP_DEPT($k, x)")
        with pytest.raises(UnboundParameterError):
            handle.execute({})

    def test_protocol_error_on_malformed_route_use(self, served):
        # /classify expects a ClassifyRequest; sending a query request there
        # is a protocol-level mistake and comes back typed as such.
        with pytest.raises(ProtocolError):
            served._post("/classify", QueryRequest("emp", "(x) . EMP_DEPT('ada', x)"))
