"""Chunked streaming: the cursor store and the HTTP session round trip."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError, UnknownCursorError
from repro.service import QueryService, running_server
from repro.service.client import ServiceClient
from repro.service.cursors import CursorStore
from repro.service.protocol import QueryResponse
from repro.workloads.generators import employee_database


def _response(n_rows: int) -> QueryResponse:
    rows = tuple((f"row{i:04d}",) for i in range(n_rows))
    return QueryResponse(
        database="db",
        fingerprint="f" * 64,
        query="(x) . P(x)",
        method="approx",
        arity=1,
        answers={"approximate": rows},
    )


class TestCursorStore:
    def test_pages_partition_the_rows_in_order(self):
        store = CursorStore()
        cursor = store.open(_response(10), "approximate", page_size=4)
        assert (cursor.total_rows, cursor.pages, cursor.page_size) == (10, 3, 4)
        rows: list[tuple[str, ...]] = []
        for page in range(cursor.pages):
            response = store.fetch(cursor.cursor_id, page)
            rows.extend(response.rows)
            assert response.last == (page == cursor.pages - 1)
        assert tuple(rows) == _response(10).answers["approximate"]

    def test_fetch_is_idempotent(self):
        store = CursorStore()
        cursor = store.open(_response(5), "approximate", page_size=2)
        first = store.fetch(cursor.cursor_id, 1)
        again = store.fetch(cursor.cursor_id, 1)
        assert first == again

    def test_empty_answer_still_has_one_empty_page(self):
        store = CursorStore()
        cursor = store.open(_response(0), "approximate", page_size=8)
        assert cursor.pages == 1
        page = store.fetch(cursor.cursor_id, 0)
        assert page.rows == () and page.last

    def test_out_of_range_page_rejected(self):
        store = CursorStore()
        cursor = store.open(_response(3), "approximate", page_size=2)
        with pytest.raises(ServiceError, match="pages 0..1"):
            store.fetch(cursor.cursor_id, 2)

    def test_unknown_and_evicted_cursors(self):
        store = CursorStore(capacity=2)
        with pytest.raises(UnknownCursorError):
            store.fetch("ghost", 0)
        first = store.open(_response(2), "approximate", page_size=2)
        store.open(_response(2), "approximate", page_size=2)
        store.open(_response(2), "approximate", page_size=2)  # evicts `first`
        with pytest.raises(UnknownCursorError):
            store.fetch(first.cursor_id, 0)

    def test_missing_label_rejected(self):
        store = CursorStore()
        with pytest.raises(ServiceError, match="no 'exact' answers"):
            store.open(_response(3), "exact", page_size=2)

    def test_close_is_idempotent(self):
        store = CursorStore()
        cursor = store.open(_response(2), "approximate", page_size=2)
        store.close(cursor.cursor_id)
        store.close(cursor.cursor_id)
        with pytest.raises(UnknownCursorError):
            store.fetch(cursor.cursor_id, 0)


class TestHTTPStreaming:
    @pytest.fixture()
    def served(self):
        service = QueryService()
        service.register("emp", employee_database(60, seed=5))
        with running_server(service) as server:
            client = ServiceClient(server.base_url)
            yield client
            client.close()
        service.close()

    def test_stream_reassembles_single_body_answer(self, served):
        handle = served.prepare("emp", "(x, y) . exists d. EMP_DEPT(x, d) & EMP_DEPT(y, d)")
        single = handle.execute({})
        streamed = tuple(handle.stream({}, page_size=32))
        assert streamed == single.answers["approximate"]
        assert len(streamed) > 32  # genuinely multi-page
        # The ad-hoc route answers the same query text with the same rows.
        assert served.query("emp", handle.template).answers["approximate"] == streamed

    def test_stream_with_parameters(self, served):
        handle = served.prepare("emp", "(y) . exists d. EMP_DEPT($e, d) & EMP_DEPT(y, d)")
        single = handle.execute({"e": "emp0"})
        assert tuple(handle.stream({"e": "emp0"}, page_size=2)) == single.answers["approximate"]

    def test_a_finished_stream_closes_its_cursor(self, served_server):
        client, server = served_server
        handle = client.prepare("emp", "(x, y) . exists d. EMP_DEPT(x, d) & EMP_DEPT(y, d)")
        assert len(list(handle.stream({}, page_size=32))) > 32
        assert len(server.cursors) == 0

    def test_a_stream_stopped_early_closes_its_cursor(self, served_server):
        client, server = served_server
        handle = client.prepare("emp", "(x, y) . exists d. EMP_DEPT(x, d) & EMP_DEPT(y, d)")
        for __ in handle.stream({}, page_size=32):
            assert len(server.cursors) == 1
            break
        assert len(server.cursors) == 0

    def test_closing_is_idempotent_over_the_wire(self, served_server):
        client, server = served_server
        handle = client.prepare("emp", "(x) . EMP_DEPT(x, 'dept0')")
        cursor = client.open_cursor(handle.statement_id, {}, page_size=3)
        client.close_cursor(cursor.cursor_id)
        client.close_cursor(cursor.cursor_id)
        assert len(server.cursors) == 0
        with pytest.raises(UnknownCursorError):
            client.fetch_page(cursor.cursor_id, 0)

    def test_streams_past_capacity_evict_nothing(self, served_server, monkeypatch):
        from repro.observability import events
        from repro.service.cursors import DEFAULT_CURSOR_CAPACITY

        client, server = served_server
        emitted = []
        emit = events.emit

        def recording(kind, *args, **kwargs):
            emitted.append(kind)
            return emit(kind, *args, **kwargs)

        monkeypatch.setattr(events, "emit", recording)
        handle = client.prepare("emp", "(y) . exists d. EMP_DEPT($e, d) & EMP_DEPT(y, d)")
        assert DEFAULT_CURSOR_CAPACITY == 256
        for index in range(300):
            assert list(handle.stream({"e": f"emp{index % 60}"}, page_size=2))
        assert len(server.cursors) == 0
        assert "cursor.evicted" not in emitted

    @pytest.fixture()
    def served_server(self):
        service = QueryService()
        service.register("emp", employee_database(60, seed=5))
        with running_server(service) as server:
            client = ServiceClient(server.base_url)
            yield client, server
            client.close()
        service.close()

    def test_cursor_metadata_matches_the_response(self, served):
        handle = served.prepare("emp", "(x) . EMP_DEPT(x, 'dept0')")
        cursor = served.open_cursor(handle.statement_id, {}, page_size=3)
        single = handle.execute({})
        assert cursor.total_rows == len(single.answers["approximate"])
        assert cursor.query == single.query
        assert cursor.label == "approximate"

    @pytest.fixture()
    def served_small(self):
        # Exact certain-answer evaluation is exponential by design; the
        # exact-route streaming tests run on the tiny intro scenario.
        from repro.workloads.scenarios import employee_intro_scenario

        service = QueryService()
        service.register("intro", employee_intro_scenario().database)
        with running_server(service) as server:
            client = ServiceClient(server.base_url)
            yield client
            client.close()
        service.close()

    def test_streaming_method_both_is_rejected(self, served_small):
        handle = served_small.prepare("intro", "(x) . EMP_DEPT(x, 'eng')", method="both")
        with pytest.raises(ServiceError, match="single answer route"):
            served_small.open_cursor(handle.statement_id, {}, page_size=3)

    def test_streaming_exact_route(self, served_small):
        handle = served_small.prepare("intro", "(x) . EMP_DEPT(x, 'eng')", method="exact")
        single = handle.execute({})
        assert tuple(handle.stream({}, page_size=2)) == single.answers["exact"]
