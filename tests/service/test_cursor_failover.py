"""Streaming failover: lost cursors fail loudly and page re-fetches are idempotent.

A cursor is transport state — it lives with the HTTP server, not with the
query engine — so a worker crash mid-pagination *must* surface as a typed
:class:`~repro.errors.UnknownCursorError` on the next fetch, never as a
silently truncated answer.  The flip side is the recovery contract: pages
are immutable once the cursor is open, so a client that loses a reply may
re-fetch the same page (or re-open the whole cursor) and reassemble an
answer byte-identical to the uninterrupted one.
"""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.errors import ServiceUnavailableError, UnknownCursorError, UnknownStatementError
from repro.resilience import FaultPlan
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.server import running_server
from repro.workloads.generators import employee_database

QUERY = "(x, y) . exists d. EMP_DEPT(x, d) & EMP_DEPT(y, d)"


def _service() -> QueryService:
    service = QueryService()
    service.register("emp", employee_database(60, seed=5))
    return service


class TestIdempotentPages:
    def test_refetching_a_page_is_byte_identical(self):
        service = _service()
        try:
            with running_server(service) as server:
                with closing(ServiceClient(server.base_url)) as client:
                    handle = client.prepare("emp", QUERY)
                    cursor = client.open_cursor(handle.statement_id, {}, page_size=32)
                    assert cursor.pages > 1  # genuinely multi-page
                    first = client.fetch_page(cursor.cursor_id, 1)
                    again = client.fetch_page(cursor.cursor_id, 1)
                    assert again.rows == first.rows
                    assert again.page == first.page == 1
        finally:
            service.close()

    def test_a_dropped_fetch_reply_is_replayed_identically(self):
        service = _service()
        try:
            with running_server(service) as server:
                with closing(ServiceClient(server.base_url)) as truth_client:
                    truth = truth_client.prepare("emp", QUERY).execute({})
                expected = truth.answers["approximate"]

                # Operations: 0 = prepare, 1 = open_cursor, 2 = fetch page 0,
                # 3 = fetch page 1 (the reply is dropped), 4+ = the replay
                # and the rest.
                plan = FaultPlan(schedule={3: "drop"})
                with closing(ServiceClient(server.base_url, fault_plan=plan)) as client:
                    handle = client.prepare("emp", QUERY)
                    cursor = client.open_cursor(handle.statement_id, {}, page_size=32)
                    rows: list[tuple[str, ...]] = []
                    for page in range(cursor.pages):
                        try:
                            response = client.fetch_page(cursor.cursor_id, page)
                        except ServiceUnavailableError as error:
                            # The server served the page; only the reply was
                            # lost.  Pages are immutable, so the replay is safe.
                            assert error.sent_request is True
                            response = client.fetch_page(cursor.cursor_id, page)
                        rows.extend(response.rows)
                    assert plan.injected() == {"drop": 1}
                    assert tuple(rows) == expected
        finally:
            service.close()


class TestServerRestart:
    def test_a_lost_cursor_is_a_typed_error_never_truncation(self):
        service = _service()
        try:
            with running_server(service) as server:
                port = server.server_address[1]
                with closing(ServiceClient(server.base_url)) as client:
                    handle = client.prepare("emp", QUERY)
                    expected = handle.execute({}).answers["approximate"]
                    cursor = client.open_cursor(handle.statement_id, {}, page_size=32)
                    head = client.fetch_page(cursor.cursor_id, 0)
                    assert not head.last

            # The server restarts on the same port: cursors (transport
            # state) are gone, prepared statements (engine state) survive
            # because the same QueryService is still running.
            with running_server(service, port=port):
                with closing(ServiceClient(f"http://127.0.0.1:{port}")) as client:
                    with pytest.raises(UnknownCursorError):
                        client.fetch_page(cursor.cursor_id, 1)
                    # Recovery: re-open the cursor on the surviving
                    # statement and reassemble the answer from scratch.
                    reopened = client.open_cursor(handle.statement_id, {}, page_size=32)
                    rows: list[tuple[str, ...]] = []
                    for page in range(reopened.pages):
                        rows.extend(client.fetch_page(reopened.cursor_id, page).rows)
                    assert tuple(rows) == expected
        finally:
            service.close()

    def test_worker_death_requires_a_full_re_prepare(self):
        service = _service()
        try:
            with running_server(service) as server:
                with closing(ServiceClient(server.base_url)) as client:
                    handle = client.prepare("emp", QUERY)
                    expected = handle.execute({}).answers["approximate"]
                    cursor = client.open_cursor(handle.statement_id, {}, page_size=32)
        finally:
            service.close()

        # A replacement worker: fresh process, fresh engine — both the
        # cursor and the statement died with the old one.
        replacement = _service()
        try:
            with running_server(replacement) as server:
                with closing(ServiceClient(server.base_url)) as client:
                    with pytest.raises(UnknownCursorError):
                        client.fetch_page(cursor.cursor_id, 0)
                    with pytest.raises(UnknownStatementError):
                        client.open_cursor(handle.statement_id, {}, page_size=32)
                    # The client-side failover: re-prepare, re-stream, and
                    # the reassembled answer matches the pre-crash one.
                    again = client.prepare("emp", QUERY)
                    assert tuple(again.stream({}, page_size=32)) == expected
        finally:
            replacement.close()
