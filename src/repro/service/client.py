"""A thin stdlib client for the JSON HTTP front-end (protocol v2).

The client speaks exactly the protocol of :mod:`repro.service.protocol`:
requests are protocol dataclasses serialized with
:func:`~repro.service.protocol.to_wire`, responses are deserialized with
:func:`~repro.service.protocol.parse_wire`.  Server-side errors (an
:class:`~repro.service.protocol.ErrorResponse` body with a 4xx status) are
re-raised locally as the **typed** exception their stable ``code`` names
(:func:`repro.errors.error_for_code`), so remote and in-process usage fail
the same way; transport-level failures (connection refused, timeout) raise
:class:`~repro.errors.ServiceUnavailableError` so the cluster router can
tell "worker down" from "worker said no".

**Sessions.**  :meth:`ServiceClient.prepare` registers a query template and
returns a :class:`PreparedHandle`: ``execute`` / ``execute_many`` bind
parameters server-side, and ``stream`` returns an iterator that pulls the
answer set page by page through a server cursor — a large answer never
travels as one giant JSON body.

Connections are **persistent**: each thread keeps one keep-alive
``http.client.HTTPConnection`` per client, because the cluster router pushes
thousands of small requests per second at each worker and a fresh TCP
connection per request costs more CPU than the query itself.  A stale
keep-alive connection (the server closed it between requests) is detected by
its signature errors and retried once on a fresh connection.  Some of those
signatures (a reset while waiting for the response) can also arrive after
the server started working, so a retried request may execute twice — safe
here because every protocol endpoint is a pure read or an idempotent
registration: ``prepare`` deduplicates server-side, ``execute`` reads,
``fetch`` names an explicit page index.

**Failure tagging.**  Every transport failure carries
``sent_request``: ``False`` when the request provably never reached the
server (connect refused — always safe to retry, even for a future
non-idempotent endpoint), ``True`` when the failure is ambiguous (the
request was written; the server may be executing it).  The router's retry
policy keys off this tag.

**Resilience hooks.**  When the calling thread carries an active
:mod:`deadline <repro.resilience.deadlines>`, ``_post`` stamps the
remaining budget as ``deadline_ms`` on the request envelope (a
pre-resilience server ignores the extra key).  A
:class:`~repro.resilience.faults.FaultPlan` — passed as ``fault_plan=`` or
via the ``REPRO_FAULTS`` environment spec — injects deterministic
transport faults at the round-trip boundary, so chaos tests script
refusals, drops, latency and garbled replies without a misbehaving server.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
from typing import Iterator, Mapping, Sequence
from urllib.parse import quote, urlparse

from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceUnavailableError,
    error_for_code,
)
from repro.observability.tracing import current_trace, span
from repro.resilience import FAULTS_ENV
from repro.resilience.deadlines import current_deadline
from repro.resilience.faults import FaultPlan
from repro.service.protocol import (
    BatchRequest,
    BatchResponse,
    ClassifyRequest,
    ClassifyResponse,
    CloseRequest,
    CursorResponse,
    DatabasesResponse,
    DEFAULT_PAGE_SIZE,
    ErrorResponse,
    ExecuteManyRequest,
    ExecuteRequest,
    FetchRequest,
    HealthResponse,
    InfoResponse,
    MetricsResponse,
    PageResponse,
    PrepareRequest,
    PrepareResponse,
    QueryRequest,
    QueryResponse,
    StatsResponse,
    parse_wire,
    to_wire,
)

__all__ = ["ServiceClient", "PreparedHandle"]

DEFAULT_TIMEOUT_SECONDS = 60.0

#: Signatures of a kept-alive connection dying under us — retried exactly
#: once on a fresh connection.  Retries may re-execute a request the server
#: had already started on; see the module docstring for why that is safe.
_STALE_CONNECTION_ERRORS = (
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
    ConnectionResetError,
    BrokenPipeError,
    ConnectionAbortedError,
)


class ServiceClient:
    """Talk to a running service at ``base_url`` (e.g. ``http://127.0.0.1:8080``)."""

    def __init__(
        self,
        base_url: str,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        fault_plan: FaultPlan | None = None,
        account: bool = False,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: When set, POST envelopes carry ``"account": true`` and the
        #: server answers queries with a ``cost`` resource bill attached.
        self.account = account
        if fault_plan is None:
            spec = os.environ.get(FAULTS_ENV, "")
            if spec:
                fault_plan = FaultPlan.from_spec(spec)
        self.fault_plan = fault_plan
        parsed = urlparse(self.base_url)
        if parsed.scheme not in ("http", "https") or not parsed.hostname:
            raise ServiceError(f"service URLs must look like http://host:port, got {base_url!r}")
        self._tls = parsed.scheme == "https"
        self._host = parsed.hostname
        self._port = parsed.port or (443 if self._tls else 80)
        self._prefix = parsed.path.rstrip("/")
        self._local = threading.local()
        #: Every thread's open connection, so :meth:`close_all` reaches them all.
        self._connections: set[http.client.HTTPConnection] = set()

    # Endpoints -----------------------------------------------------------------

    def health(self) -> HealthResponse:
        """Liveness probe."""
        return self._expect(self._get("/health"), HealthResponse)

    def databases(self) -> tuple[str, ...]:
        return self._expect(self._get("/databases"), DatabasesResponse).databases

    def info(self, database: str) -> InfoResponse:
        return self._expect(self._get(f"/info?db={quote(database)}"), InfoResponse)

    def stats(self) -> StatsResponse:
        return self._expect(self._get("/stats"), StatsResponse)

    def metrics(self) -> MetricsResponse:
        """The server's telemetry snapshot (``GET /metrics``)."""
        return self._expect(self._get("/metrics"), MetricsResponse)

    def query(
        self,
        database: str,
        query: str,
        method: str = "approx",
        engine: str = "algebra",
        profile: bool = False,
    ) -> QueryResponse:
        request = QueryRequest(database, query, method, engine, profile)
        return self._expect(self._post("/query", request), QueryResponse)

    def execute(self, request: QueryRequest) -> QueryResponse:
        return self._expect(self._post("/query", request), QueryResponse)

    def classify(self, query: str) -> ClassifyResponse:
        return self._expect(self._post("/classify", ClassifyRequest(query)), ClassifyResponse)

    def batch(self, requests: Sequence[QueryRequest]) -> BatchResponse:
        return self._expect(self._post("/batch", BatchRequest(tuple(requests))), BatchResponse)

    # The session API ------------------------------------------------------------

    def prepare(
        self,
        database: str,
        template: str,
        method: str = "approx",
        engine: str = "algebra",
    ) -> "PreparedHandle":
        """Register a query template server-side; returns the execution handle."""
        request = PrepareRequest(database, template, method, engine)
        response = self._expect(self._post("/prepare", request), PrepareResponse)
        return PreparedHandle(self, response)

    def execute_prepared(
        self,
        statement_id: str,
        params: Mapping[str, str] | None = None,
    ) -> QueryResponse:
        request = ExecuteRequest(statement_id, dict(params or {}))
        return self._expect(self._post("/execute", request), QueryResponse)

    def execute_prepared_many(self, statement_id: str, bindings) -> BatchResponse:
        request = ExecuteManyRequest(statement_id, tuple(dict(b) for b in bindings))
        return self._expect(self._post("/execute", request), BatchResponse)

    def open_cursor(
        self,
        statement_id: str,
        params: Mapping[str, str] | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> CursorResponse:
        request = ExecuteRequest(statement_id, dict(params or {}), stream=True, page_size=page_size)
        return self._expect(self._post("/execute", request), CursorResponse)

    def fetch_page(self, cursor_id: str, page: int) -> PageResponse:
        return self._expect(self._post("/fetch", FetchRequest(cursor_id, page)), PageResponse)

    def close_cursor(self, cursor_id: str) -> None:
        """Drop a cursor server-side (idempotent)."""
        self._expect(self._post("/fetch", CloseRequest(cursor_id)), CloseRequest)

    def get_raw(self, path: str) -> dict:
        """GET a route and return the undecoded JSON payload (envelope included)."""
        payload = self._round_trip("GET", path)
        if not isinstance(payload, dict):
            raise ProtocolError(f"expected a JSON object from {path}, got {type(payload).__name__}")
        return payload

    def debug(self) -> dict:
        """The server's flight-recorder snapshot (``GET /debug/flightrecorder``)."""
        return self.get_raw("/debug/flightrecorder")

    def close(self) -> None:
        """Drop this thread's persistent connection (harmless if absent)."""
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is not None:
            self._connections.discard(connection)
            try:
                connection.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def close_all(self) -> None:
        """Close every thread's persistent connection: the client is done."""
        for connection in list(self._connections):
            connection.close()
        self._connections.clear()

    # Plumbing ------------------------------------------------------------------

    def _get(self, path: str) -> object:
        return self._parse(self._round_trip("GET", path))

    def _post(self, path: str, message: object) -> object:
        wire = to_wire(message)
        if self.account:
            # Ask the server to attach the per-request resource bill; a
            # pre-accounting server ignores the extra envelope key.
            wire["account"] = True
        deadline = current_deadline()
        if deadline is not None:
            # Stamp the *remaining* budget: each hop re-anchors it on its own
            # monotonic clock, so the envelope decrements by exactly the time
            # already burned — no cross-process clock comparison anywhere.
            # Raises DeadlineExceededError instead of forwarding a dead request.
            wire["deadline_ms"] = deadline.wire_budget_ms()
        active = current_trace()
        if active is None:
            return self._parse(self._round_trip("POST", path, json.dumps(wire).encode()))
        # A trace is active: stamp its context on the request envelope so the
        # server's spans stitch under ours, and fold the spans it returns
        # back into the active trace.  The no-trace path above stays as
        # cheap as before — one thread-local read.
        with span(f"rpc POST {path}", url=self.base_url):
            wire["trace"] = active.wire_context()
            decoded = self._round_trip("POST", path, json.dumps(wire).encode())
            if isinstance(decoded, dict):
                active.absorb(decoded.get("trace"))
            return self._parse(decoded)

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection_type = http.client.HTTPSConnection if self._tls else http.client.HTTPConnection
            connection = connection_type(self._host, self._port, timeout=self.timeout)
            connection.connect()
            # Headers and body go out as separate writes; without TCP_NODELAY
            # Nagle holds the second one for the server's delayed ACK, adding
            # ~40ms to every keep-alive request.
            connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.connection = connection
            self._connections.add(connection)
        return connection

    def _round_trip(self, method: str, path: str, body: bytes | None = None) -> object:
        fault = self.fault_plan.draw() if self.fault_plan is not None else None
        if fault is not None and fault.kind == "refuse":
            raise ServiceUnavailableError(
                f"injected fault: connection refused for {self.base_url}",
                sent_request=False,
            )
        if fault is not None and fault.timed:
            # Latency spike / slow-trickle: stall, then proceed normally.
            time.sleep(fault.stall_ms / 1000.0)
        url = self._prefix + path
        headers = {"Content-Type": "application/json"} if body is not None else {}
        status = payload = None
        ever_sent = False
        for attempt in (0, 1):
            try:
                try:
                    connection = self._connection()
                except OSError as error:
                    # Establishing the connection failed (refused, DNS, reset
                    # during connect): the server provably never saw the
                    # request, so this failure is always safe to retry.
                    self.close()
                    raise ServiceUnavailableError(
                        f"cannot reach service at {self.base_url}: {error}",
                        sent_request=False,
                    ) from None
                connection.request(method, url, body=body, headers=headers)
                # The body is framed by Content-Length: once request() returns
                # it is fully written, and every failure from here on is
                # *ambiguous* — the server may be executing the request.
                ever_sent = True
                if fault is not None and fault.kind == "drop":
                    self.close()
                    raise ServiceUnavailableError(
                        f"injected fault: connection dropped mid-request to {self.base_url}",
                        sent_request=True,
                    )
                response = connection.getresponse()
                status = response.status
                payload = response.read()
                if response.will_close:
                    self.close()
                break
            except _STALE_CONNECTION_ERRORS as error:
                # The keep-alive connection died between requests; retry once
                # on a fresh one, then report the worker as unreachable.
                self.close()
                if attempt:
                    raise ServiceUnavailableError(
                        f"cannot reach service at {self.base_url}: {error}",
                        sent_request=ever_sent,
                    ) from None
            except TimeoutError:
                self.close()
                raise ServiceUnavailableError(
                    f"service at {self.base_url} did not respond within {self.timeout} seconds",
                    sent_request=ever_sent,
                ) from None
            except (http.client.HTTPException, OSError) as error:
                self.close()
                raise ServiceUnavailableError(
                    f"cannot reach service at {self.base_url}: {error}",
                    sent_request=ever_sent,
                ) from None
        if fault is not None and fault.kind == "garble":
            # The server did the work; the reply arrives truncated.  Drop the
            # connection too — a real truncation kills the keep-alive stream.
            self.close()
            raise ProtocolError(
                f"injected fault: truncated response payload from {self.base_url}{url}"
            )
        text = payload.decode(errors="replace")
        try:
            decoded = json.loads(text)
        except json.JSONDecodeError:
            if status >= 400:
                raise ServiceError(f"HTTP {status} from {self.base_url}{url}: {text[:200]}") from None
            raise ProtocolError(
                f"non-JSON response from {self.base_url}{url}: {text[:200]!r} — is that really a repro service?"
            ) from None
        if status >= 400:
            self._raise_remote_error(decoded, status)
            raise ServiceError(f"HTTP {status} from {self.base_url}{url}")
        return decoded

    def _parse(self, payload: object) -> object:
        message = parse_wire(payload)  # type: ignore[arg-type]
        if isinstance(message, ErrorResponse):
            raise _remote_error(message)
        return message

    def _raise_remote_error(self, payload: object, status: int) -> None:
        try:
            message = parse_wire(payload)  # type: ignore[arg-type]
        except ProtocolError:
            raise ServiceError(f"HTTP {status}: unrecognized error body") from None
        if isinstance(message, ErrorResponse):
            raise _remote_error(message)

    def _expect(self, message: object, expected: type):
        if not isinstance(message, expected):
            raise ProtocolError(f"expected a {expected.__name__}, got {type(message).__name__}")
        return message


def _remote_error(message: ErrorResponse) -> ServiceError:
    """The typed local exception for a wire error.

    The stable ``code`` picks the class; the ``kind`` prefix is only kept
    when it adds information (the code resolved to a different class, e.g.
    an unregistered subclass).
    """
    error = error_for_code(message.code, message.error)
    if type(error).__name__ == message.kind:
        return error
    return error_for_code(message.code, f"{message.kind}: {message.error}")


class PreparedHandle:
    """Client-side face of one prepared statement.

    Thin and immutable: all state (the statement, its plan, its counters)
    lives server-side; the handle just remembers the id and what must be
    bound.  Iterate large answers with :meth:`stream` — pages are fetched
    lazily, so row ``n`` of a million-row answer does not wait for row
    999999 to be serialized.
    """

    def __init__(self, client: ServiceClient, response: PrepareResponse) -> None:
        self.client = client
        self.statement_id = response.statement_id
        self.database = response.database
        self.fingerprint = response.fingerprint
        self.template = response.template
        self.parameters = response.parameters
        self.arity = response.arity
        self.method = response.method
        self.engine = response.engine

    def execute(self, params: Mapping[str, str] | None = None) -> QueryResponse:
        """One bound execution, answered as a single body."""
        return self.client.execute_prepared(self.statement_id, params)

    def execute_many(self, bindings) -> BatchResponse:
        """A parameter sweep: deduplicated server-side, positional answers."""
        return self.client.execute_prepared_many(self.statement_id, bindings)

    def stream(
        self,
        params: Mapping[str, str] | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> Iterator[tuple[str, ...]]:
        """Iterate the answer rows, fetching one page at a time.

        Rows arrive in the canonical (sorted) wire order, so collecting the
        iterator reproduces the single-body answer exactly.  The server-side
        cursor is closed after the last page, or as soon as the consumer
        stops early (the iterator is closed or dropped).
        """
        cursor = self.client.open_cursor(self.statement_id, params, page_size=page_size)
        try:
            for page in range(cursor.pages):
                response = self.client.fetch_page(cursor.cursor_id, page)
                yield from response.rows
                if response.last:
                    break
        finally:
            self.client.close_cursor(cursor.cursor_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"PreparedHandle({self.statement_id!r}, database={self.database!r}, "
            f"template={self.template!r}, parameters={self.parameters!r})"
        )
