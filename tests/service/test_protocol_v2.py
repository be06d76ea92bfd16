"""Protocol v2: round-trip identity and the version check."""

from __future__ import annotations

import copy
import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    BatchRequest,
    BatchResponse,
    ClassifyRequest,
    ClassifyResponse,
    CloseRequest,
    CursorResponse,
    DatabasesResponse,
    ErrorResponse,
    ExecuteManyRequest,
    ExecuteRequest,
    FetchRequest,
    HealthResponse,
    InfoResponse,
    PageResponse,
    PrepareRequest,
    PrepareResponse,
    QueryRequest,
    QueryResponse,
    StatsResponse,
    dump_wire,
    parse_wire,
    to_wire,
    wire_version,
)

QUERY_RESPONSE = QueryResponse(
    database="db",
    fingerprint="f" * 64,
    query="(x) . P($k, x)",
    method="approx",
    arity=1,
    answers={"approximate": (("a",), ("b",))},
)

#: One representative instance per message type.
MESSAGES = [
    QueryRequest("db", "(x) . P(x)", "both", profile=True),
    QUERY_RESPONSE,
    ClassifyRequest("(x) . P(x)"),
    ClassifyResponse("(x) . P(x)", True, "Sigma_1", True, "PTIME", "PSPACE", "summary"),
    InfoResponse("db", "f" * 64, 3, {"P": {"arity": 1, "facts": 2}}, 1, ("u",), False, "desc"),
    HealthResponse("ok", "1.2.3", (2,)),
    DatabasesResponse(("a", "b")),
    StatsResponse(
        databases=("a",),
        answer_cache={"hits": 1},
        parse_cache={"misses": 2},
        batch={"executed": 3},
        uptime_seconds=1.5,
        plan_cache={"hits": 4},
        cluster={"shards": 2},
        prepared={"templates": 1, "executions": 9},
    ),
    BatchRequest((QueryRequest("db", "(x) . P(x)"),)),
    BatchResponse((QUERY_RESPONSE, ErrorResponse("boom", "ParseError", "parse")), 2, 2, 0),
    ErrorResponse("boom", "CapacityError", "capacity"),
    PrepareRequest("db", "(x) . P($k, x)", "approx"),
    PrepareResponse("stmt-1", "db", "f" * 64, "(x) . P($k, x)", ("k",), 1, "approx"),
    ExecuteRequest("stmt-1", {"k": "v"}, stream=True, page_size=16),
    ExecuteManyRequest("stmt-1", ({"k": "a"}, {"k": "b"})),
    CursorResponse(
        cursor_id="c1",
        database="db",
        fingerprint="f" * 64,
        query="(x) . P('a', x)",
        method="approx",
        arity=1,
        label="approximate",
        total_rows=3,
        page_size=2,
        pages=2,
    ),
    FetchRequest("c1", 1),
    CloseRequest("c1"),
    PageResponse("c1", 1, (("a",),), True),
]


class TestRoundTrips:
    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_every_message_round_trips(self, message):
        text = dump_wire(message)
        payload = json.loads(text)
        assert payload["v"] == PROTOCOL_VERSION
        assert parse_wire(payload) == message
        assert parse_wire(text) == message  # str entry point too

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_every_message_refuses_a_v1_envelope(self, message):
        payload = to_wire(message)
        payload["v"] = 1
        with pytest.raises(ProtocolError, match="unsupported protocol version 1"):
            parse_wire(payload)

    def test_default_serialization_version_is_two(self):
        assert PROTOCOL_VERSION == 2
        assert SUPPORTED_PROTOCOL_VERSIONS == (2,)
        assert json.loads(dump_wire(QUERY_RESPONSE))["v"] == 2


def _asdict_wire(message: object) -> dict[str, object]:
    """The deep-copying envelope (``dataclasses.asdict``), kept here as the oracle."""
    if isinstance(message, BatchRequest):
        payload: dict[str, object] = {"requests": [_asdict_wire(request) for request in message.requests]}
    elif isinstance(message, BatchResponse):
        payload = {
            "responses": [_asdict_wire(response) for response in message.responses],
            "total": message.total,
            "unique": message.unique,
            "deduplicated": message.deduplicated,
        }
    else:
        payload = asdict(message)
    payload["type"] = to_wire(message)["type"]
    payload["v"] = PROTOCOL_VERSION
    return payload


class TestShallowEnvelope:
    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_bytes_equal_the_deep_copying_oracle(self, message):
        assert json.dumps(to_wire(message), sort_keys=True) == json.dumps(_asdict_wire(message), sort_keys=True)

    def test_answers_are_shared_not_copied(self):
        assert to_wire(QUERY_RESPONSE)["answers"] is QUERY_RESPONSE.answers

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_top_level_keys_added_by_the_server_leave_the_message_alone(self, message):
        before = copy.deepcopy(message)
        text = dump_wire(message)
        wire = to_wire(message)
        wire["trace"] = {"id": "t", "spans": []}
        wire["cost"] = {"schema": "repro-cost/v1", "rows_emitted": 2}
        assert message == before
        assert dump_wire(message) == text


class TestVersioning:
    def test_wire_version_reads_the_envelope(self):
        assert wire_version(dump_wire(QUERY_RESPONSE)) == 2

    def test_unknown_versions_rejected(self):
        payload = to_wire(QUERY_RESPONSE)
        for version in (0, 1, 3, "2"):
            payload["v"] = version
            with pytest.raises(ProtocolError, match="unsupported protocol version"):
                parse_wire(payload)

    def test_missing_version_rejected(self):
        payload = to_wire(QUERY_RESPONSE)
        del payload["v"]
        with pytest.raises(ProtocolError, match="missing the protocol version"):
            parse_wire(payload)

    def test_a_recorded_v1_line_is_refused(self):
        # Exactly what a traffic log recorded before v1 was retired holds.
        payload = {"type": "health", "v": 1, "status": "ok", "library_version": "0.9"}
        with pytest.raises(ProtocolError, match="unsupported protocol version 1"):
            parse_wire(payload)


class TestValidation:
    def test_execute_request_rejects_non_string_bindings(self):
        with pytest.raises(ProtocolError, match="malformed"):
            parse_wire({"type": "execute_request", "v": 2, "statement_id": "s", "params": {"k": 7}})

    def test_execute_request_rejects_bad_page_size(self):
        with pytest.raises(ProtocolError, match="malformed"):
            parse_wire(
                {"type": "execute_request", "v": 2, "statement_id": "s", "params": {}, "page_size": 0}
            )

    def test_fetch_request_rejects_negative_pages(self):
        with pytest.raises(ProtocolError, match="malformed"):
            parse_wire({"type": "fetch_request", "v": 2, "cursor_id": "c", "page": -1})

    def test_execute_many_rejects_non_object_bindings(self):
        with pytest.raises(ProtocolError):
            parse_wire(
                {"type": "execute_many_request", "v": 2, "statement_id": "s", "bindings": ["nope"]}
            )


@st.composite
def query_requests(draw):
    name = st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), min_codepoint=48, max_codepoint=122),
        min_size=1,
        max_size=12,
    )
    return QueryRequest(
        database=draw(name),
        query=draw(name),
        method=draw(st.sampled_from(("approx", "both"))),
        profile=draw(st.booleans()),
    )


class TestFuzzedRoundTrips:
    """Property/fuzz round-trips: ``parse_wire ∘ dump_wire`` is the identity."""

    @settings(max_examples=60, deadline=None)
    @given(request=query_requests())
    def test_query_requests(self, request):
        assert parse_wire(dump_wire(request)) == request

    @settings(max_examples=60, deadline=None)
    @given(
        statement_id=st.text(min_size=1, max_size=16),
        params=st.dictionaries(
            st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8), max_size=4
        ),
        stream=st.booleans(),
        page_size=st.integers(min_value=1, max_value=1 << 16),
    )
    def test_execute_requests(self, statement_id, params, stream, page_size):
        request = ExecuteRequest(statement_id, params, stream, page_size)
        assert parse_wire(dump_wire(request)) == request

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.text(max_size=6), min_size=1, max_size=3).map(tuple), max_size=8
        ).map(tuple),
        page=st.integers(min_value=0, max_value=1000),
        last=st.booleans(),
    )
    def test_page_responses(self, rows, page, last):
        # Pad rows to a rectangle? Not required: pages carry arbitrary row
        # tuples; the protocol only promises tuple-of-tuples fidelity.
        response = PageResponse("cursor", page, rows, last)
        assert parse_wire(dump_wire(response)) == response

    @settings(max_examples=40, deadline=None)
    @given(
        answers=st.dictionaries(
            st.sampled_from(("approximate", "exact")),
            st.lists(st.lists(st.text(max_size=5), min_size=1, max_size=2).map(tuple), max_size=6).map(
                lambda rows: tuple(sorted(rows))
            ),
            min_size=1,
            max_size=2,
        ),
    )
    def test_query_responses(self, answers):
        response = QueryResponse(
            database="db",
            fingerprint="f" * 64,
            query="(x) . P(x)",
            method="both",
            arity=1,
            answers=answers,
        )
        assert parse_wire(dump_wire(response)) == response
