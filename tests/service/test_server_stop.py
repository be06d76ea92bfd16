"""Stopping a server wakes its loop instead of waiting out a poll tick.

``socketserver``'s loop notices ``shutdown()`` only on its next poll (0.5 s
by default), which every test teardown, worker SIGTERM and ``serve()`` exit
paid.  The server's loop now also watches a socket pair that ``shutdown()``
writes to.  Polling once a minute makes the difference deterministic: a stop
that waits for the poll would take 60 s, far past the joins below.
"""

from __future__ import annotations

import threading

import pytest

from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.server import make_server

JOIN_SECONDS = 5.0


@pytest.fixture
def server(ripper_cw):
    service = QueryService()
    service.register("ripper", ripper_cw)
    server = make_server(service)
    yield server
    server.server_close()


def _serve(server) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 60}, daemon=True)
    thread.start()
    client = ServiceClient(server.base_url)
    try:
        assert client.health().status == "ok"  # the loop is up and answering
    finally:
        client.close()
    return thread


def _stop(server, serving: threading.Thread) -> None:
    stopping = threading.Thread(target=server.shutdown, daemon=True)
    stopping.start()
    stopping.join(timeout=JOIN_SECONDS)
    serving.join(timeout=JOIN_SECONDS)
    assert not stopping.is_alive(), "shutdown() waited for the poll tick"
    assert not serving.is_alive(), "serve_forever() did not return"


def test_shutdown_wakes_a_loop_that_polls_once_a_minute(server):
    _stop(server, _serve(server))


def test_a_stopped_server_serves_and_stops_again(server):
    # The wake-up byte of the first stop must neither stop the second loop
    # at once nor keep its selector spinning.
    _stop(server, _serve(server))
    serving = _serve(server)
    assert serving.is_alive()
    _stop(server, serving)
