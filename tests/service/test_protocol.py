"""Tests for the versioned JSON wire protocol."""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    BatchRequest,
    BatchResponse,
    ClassifyRequest,
    CursorResponse,
    DatabasesResponse,
    ErrorResponse,
    HealthResponse,
    PrepareRequest,
    PrepareResponse,
    QueryRequest,
    QueryResponse,
    answers_from_wire,
    answers_to_wire,
    build_classify_response,
    build_info_response,
    dump_wire,
    parse_wire,
    to_wire,
)


def _query_response(**overrides) -> QueryResponse:
    values = dict(
        database="db",
        fingerprint="f" * 64,
        query="(x) . P(x)",
        method="approx",
        arity=1,
        answers={"approximate": (("a",), ("b",))},
    )
    values.update(overrides)
    return QueryResponse(**values)


class TestAnswerSets:
    def test_wire_form_is_sorted_lists(self):
        wire = answers_to_wire(frozenset({("b",), ("a",)}))
        assert wire == [["a"], ["b"]]

    def test_roundtrip(self):
        answers = frozenset({("a", "b"), ("c", "d")})
        assert answers_from_wire(answers_to_wire(answers)) == answers

    def test_boolean_true_answer_roundtrips(self):
        answers = frozenset({()})
        assert answers_from_wire(answers_to_wire(answers)) == answers


class TestValidation:
    def test_bad_method_rejected(self):
        with pytest.raises(ServiceError, match="unknown method"):
            QueryRequest("db", "(x) . P(x)", method="psychic")

    def test_a_served_request_names_no_engine(self):
        assert [f.name for f in fields(QueryRequest)] == ["database", "query", "method", "profile"]
        for message in (QueryResponse, PrepareRequest, PrepareResponse, CursorResponse):
            assert "engine" not in {f.name for f in fields(message)}, message

    @pytest.mark.parametrize("engine", ["tarski", "algebra", "quantum"])
    def test_an_engine_other_than_auto_is_refused(self, engine):
        with pytest.raises(ServiceError, match="ApproximateEvaluator"):
            QueryRequest("db", "(x) . P(x)", "approx", engine)

    def test_the_positional_auto_slot_keeps_profile_in_place(self):
        request = QueryRequest("db", "(x) . P(x)", "approx", "auto")
        assert request == QueryRequest("db", "(x) . P(x)") and request.profile is False
        assert replace(request, query="(x) . Q(x)").query == "(x) . Q(x)"


class TestWireRoundTrips:
    @pytest.mark.parametrize(
        "message",
        [
            QueryRequest("db", "(x) . P(x)", "both", profile=True),
            ClassifyRequest("(x) . P(x)"),
            ErrorResponse("boom", "ParseError"),
            HealthResponse("ok", "1.0.0"),
            DatabasesResponse(("a", "b")),
            _query_response(),
            _query_response(method="both", answers={"approximate": (), "exact": (("a",),)}, complete=False, missed=1),
        ],
    )
    def test_roundtrip_through_json(self, message):
        text = dump_wire(message)
        assert parse_wire(text) == message

    def test_batch_request_roundtrip(self):
        batch = BatchRequest((QueryRequest("db", "(x) . P(x)"), QueryRequest("db", "(x) . Q(x)", "exact")))
        assert parse_wire(dump_wire(batch)) == batch

    def test_batch_response_roundtrip_mixed_slots(self):
        batch = BatchResponse(
            responses=(_query_response(), ErrorResponse("bad", "ParseError")),
            total=3,
            unique=2,
            deduplicated=1,
        )
        assert parse_wire(dump_wire(batch)) == batch

    def test_wire_carries_type_and_version(self):
        payload = to_wire(QueryRequest("db", "(x) . P(x)"))
        assert payload["type"] == "query_request"
        assert payload["v"] == PROTOCOL_VERSION


class TestParseErrors:
    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_wire("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_wire(json.dumps([1, 2, 3]))

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            parse_wire({"type": "teleport", "v": PROTOCOL_VERSION})

    def test_missing_version_rejected(self):
        with pytest.raises(ProtocolError, match="missing the protocol version"):
            parse_wire({"type": "classify_request", "query": "(x) . P(x)"})

    def test_non_string_type_rejected(self):
        with pytest.raises(ProtocolError, match="type must be a string"):
            parse_wire({"type": ["query_request"], "v": PROTOCOL_VERSION})

    def test_future_version_rejected(self):
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            parse_wire({"type": "query_request", "v": PROTOCOL_VERSION + 1})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ProtocolError, match="malformed query_request"):
            parse_wire({"type": "query_request", "v": PROTOCOL_VERSION, "database": "db"})

    def test_invalid_enum_value_rejected(self):
        with pytest.raises(ProtocolError, match="malformed query_request"):
            parse_wire({
                "type": "query_request",
                "v": PROTOCOL_VERSION,
                "database": "db",
                "query": "(x) . P(x)",
                "method": "psychic",
            })

    def test_serializing_non_message_rejected(self):
        with pytest.raises(ProtocolError, match="not a protocol message"):
            to_wire({"plain": "dict"})


class TestBuilders:
    def test_info_response_matches_database(self, ripper_cw):
        info = build_info_response("ripper", ripper_cw)
        assert info.name == "ripper"
        assert info.fingerprint == ripper_cw.fingerprint()
        assert info.constants == 3
        assert info.predicates["MURDERER"] == {"arity": 1, "facts": 1}
        assert info.unknown_constants == ("jack",)
        assert info.uniqueness_axioms == 1
        assert not info.fully_specified
        assert parse_wire(dump_wire(info)) == info

    def test_classify_response_roundtrip(self):
        from repro.complexity.classes import classify_query
        from repro.logic.parser import parse_query

        text = "(x) . exists y. R(x, y) & ~P(y)"
        response = build_classify_response(text, classify_query(parse_query(text)))
        assert response.is_first_order
        assert "co-NP" in response.logical_data_complexity
        assert parse_wire(dump_wire(response)) == response
