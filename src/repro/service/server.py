"""A stdlib JSON HTTP front-end for the query service (protocol v2).

Varda-style loosely coupled components: the engine knows nothing about
HTTP, and this module knows nothing about query evaluation — it only
translates between HTTP messages and :mod:`repro.service.protocol`
messages.  Built on :class:`http.server.ThreadingHTTPServer` so concurrent
clients exercise the engine's thread safety with zero new dependencies.

Routes
------
=============  ======  ==================================================
``/health``    GET     liveness + library version + protocol versions
``/databases`` GET     registered snapshot names
``/info``      GET     ``?db=<name>`` → :class:`InfoResponse`
``/stats``     GET     cache/batch/prepared counters
``/metrics``   GET     telemetry snapshot: counters + p50/p95/p99 histograms
``/debug/flightrecorder``  GET  forensic ring of slow/failed requests
``/query``     POST    :class:`QueryRequest` → :class:`QueryResponse`
``/classify``  POST    :class:`ClassifyRequest` → :class:`ClassifyResponse`
``/batch``     POST    :class:`BatchRequest` → :class:`BatchResponse`
``/prepare``   POST    :class:`PrepareRequest` → :class:`PrepareResponse`
``/execute``   POST    :class:`ExecuteRequest` → :class:`QueryResponse`
                       (or :class:`CursorResponse` when streaming), and
                       :class:`ExecuteManyRequest` → :class:`BatchResponse`
``/fetch``     POST    :class:`FetchRequest` → :class:`PageResponse`, and
                       :class:`CloseRequest` → the same message (cursor gone)
=============  ======  ==================================================

Errors come back as :class:`ErrorResponse` bodies (stable ``code`` field)
with a 4xx status.  Every response is a v2 envelope; a request envelope
claiming any other version is refused with a 400 ``protocol`` error.

**Tracing.**  A POST request envelope may carry a ``trace`` context
(``{"id": ..., "span": ...}``, see :mod:`repro.observability.tracing`); the
server then records its handling under that trace and returns the collected
spans in a ``trace`` field on the response envelope, which the client folds
back into the caller's span tree.  Requests without the field pay nothing.

**Resilience.**  A POST envelope may also carry ``deadline_ms`` — the
caller's remaining budget, re-anchored on this server's monotonic clock and
enforced down in the engine/executor; overruns answer 504 with the typed
``deadline_exceeded`` code.  Each server owns an
:class:`~repro.resilience.admission.AdmissionController`: POSTs beyond the
in-flight watermark queue briefly (bounded by their own deadline), and past
the queue watermark they are shed as 503 ``overloaded`` with a
``Retry-After`` hint — failing a bounded subset fast instead of letting
every request time out.  GETs bypass admission so monitoring stays usable
exactly when the server is overloaded.

**Accounting and forensics.**  Every POST opens a
:class:`~repro.observability.accounting.ResourceAccount` and activates it
on the handling thread, so the executor, engine, admission controller and
router charge the request's itemized bill without parameter threading.
An envelope carrying ``"account": true`` gets the bill back
as a ``cost`` field on the response; either way the bill is folded into
the aggregate ``account.*`` counters and handed — together with the
request's trace, plan profile and event tail — to the server's
:class:`~repro.observability.recorder.FlightRecorder`, which captures
slow and failed requests in a bounded ring served at
``GET /debug/flightrecorder``.
"""

from __future__ import annotations

import contextlib
import json
import math
import selectors
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    CapacityError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ReproError,
    ServiceError,
    UnknownCursorError,
    UnknownDatabaseError,
    UnknownStatementError,
)
from repro.observability import events, tracing
from repro.observability.accounting import ResourceAccount, activate as activate_account
from repro.observability.recorder import FlightRecorder
from repro.resilience import deadlines
from repro.resilience.admission import AdmissionController
from repro.service.cursors import CursorStore
from repro.service.frontend import Frontend
from repro.service.protocol import (
    BatchRequest,
    ClassifyRequest,
    CloseRequest,
    DatabasesResponse,
    ErrorResponse,
    ExecuteManyRequest,
    ExecuteRequest,
    FetchRequest,
    HealthResponse,
    PrepareRequest,
    PrepareResponse,
    QueryRequest,
    parse_wire,
    to_wire,
    wire_version,
)

__all__ = ["ServiceHTTPServer", "make_server", "running_server", "serve"]

MAX_REQUEST_BYTES = 4 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one front-end: a service or a cluster router."""

    daemon_threads = True
    # The socketserver default backlog of 5 drops (ECONNRESET) bursts of new
    # connections long before the engine is saturated — the cluster router
    # fans dozens of short-lived urllib connections at each worker.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: Frontend,
        quiet: bool = True,
        max_in_flight: int | None = None,
        max_queue_depth: int | None = None,
        recorder_capacity: int | None = None,
        slow_threshold_ms: float | None = None,
    ) -> None:
        # socketserver's loop notices a stop request only on its next poll
        # tick (0.5 s by default); a byte on this pair wakes it at once.  It
        # exists before the bind, whose failure calls server_close().
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._wake_reader.setblocking(False)
        self._stop_requested = False
        self._stopped = threading.Event()
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet
        #: The forensic ring: every completed POST is observed, slow and
        #: failed ones are captured with trace + profile + bill + events.
        recorder_kwargs = {}
        if recorder_capacity is not None:
            recorder_kwargs["capacity"] = recorder_capacity
        if slow_threshold_ms is not None:
            recorder_kwargs["slow_threshold_ms"] = slow_threshold_ms
        self.flight_recorder = FlightRecorder(**recorder_kwargs)
        #: Streaming cursors are transport state: they live with the server,
        #: not the engine, so in-process service use never pays for them.
        self.cursors = CursorStore()
        #: Admission control is transport state too: the in-process service
        #: has no thread bound to protect.
        kwargs = {}
        if max_in_flight is not None:
            kwargs["max_in_flight"] = max_in_flight
        if max_queue_depth is not None:
            kwargs["max_queue_depth"] = max_queue_depth
        self.admission = AdmissionController(metrics=service.metrics_registry, **kwargs)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Handle requests until :meth:`shutdown`, which wakes the loop at once.

        The loop of :class:`socketserver.BaseServer`, with one more readable
        in its selector: the socket pair ``shutdown()`` writes to.
        """
        self._stopped.clear()
        with contextlib.suppress(BlockingIOError):  # the wake-up of the last stop
            self._wake_reader.recv(4096)
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_reader, selectors.EVENT_READ)
                while not self._stop_requested:
                    ready = selector.select(poll_interval)
                    if self._stop_requested:
                        break
                    if any(key.fileobj is self for key, __ in ready):
                        self._handle_request_noblock()
                    self.service_actions()
        finally:
            self._stop_requested = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned.

        Like the stdlib's, this must be called from a thread other than the
        serving one, or it deadlocks.
        """
        self._stop_requested = True
        with contextlib.suppress(OSError):  # a repeated stop, after server_close()
            self._wake_writer.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def drain(self, timeout_seconds: float = 5.0) -> bool:
        """Wait for admitted requests to finish; ``False`` on timeout.

        Graceful-shutdown hook: call after ``shutdown()`` (no new requests)
        and before ``server_close()``, so in-flight work completes instead
        of surfacing as transport errors to callers.
        """
        return self.admission.drain(timeout_seconds)


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    server_version = "repro-service/2.0"
    protocol_version = "HTTP/1.1"
    # Response headers and body are separate writes; let them leave
    # immediately instead of waiting on the client's delayed ACK.
    disable_nagle_algorithm = True

    # Routing ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        try:
            if url.path == "/health":
                from repro import __version__

                self._send_message(200, HealthResponse(status="ok", library_version=__version__))
            elif url.path == "/databases":
                self._send_message(200, DatabasesResponse(self.server.service.database_names()))
            elif url.path == "/info":
                names = parse_qs(url.query).get("db", [])
                if len(names) != 1:
                    raise ServiceError("/info needs exactly one ?db=<name> parameter")
                self._send_message(200, self.server.service.info(names[0]))
            elif url.path == "/stats":
                self._send_message(200, self.server.service.stats())
            elif url.path == "/metrics":
                self._send_message(200, self.server.service.metrics())
            elif url.path == "/debug/flightrecorder":
                # Plain JSON rather than a protocol dataclass: an operator
                # forensic endpoint, versioned by its own ``schema`` field.
                self._send(200, self.server.flight_recorder.snapshot())
            else:
                self._send_error_response(404, ServiceError(f"no such route: GET {url.path}"))
        except ReproError as error:
            self._send_error_response(_status_for(error), error)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        started = time.perf_counter()
        account = ResourceAccount()
        trace_ctx = None
        message = None
        response = None
        status = 200
        failure: ReproError | None = None
        try:
            if url.path not in ("/query", "/classify", "/batch", "/prepare", "/execute", "/fetch"):
                # Route before reading the body so probes of unknown paths
                # get a 404, not a complaint about their payload.
                self._send_error_response(404, ServiceError(f"no such route: POST {url.path}"))
                return
            body = self._read_body()
            account.add_bytes_in(len(body))
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as error:
                raise ProtocolError(f"payload is not valid JSON: {error}") from None
            # Check the envelope before adopting anything from it, but adopt
            # the trace before the message parses: a malformed message's
            # trace still reaches the flight recorder.
            wire_version(payload)
            trace_ctx = tracing.adopt(payload.get("trace"))
            # Re-anchor the caller's remaining budget on this process's
            # monotonic clock; absent/malformed means "no deadline".
            deadline = deadlines.adopt(payload.get("deadline_ms"))
            wants_cost = payload.get("account") is True
            message = parse_wire(payload)
            with deadlines.activate(deadline):
                if deadline is not None:
                    deadline.check("request admission")
                # Admission *inside* the deadline scope: a queued request's
                # wait is bounded by its own remaining budget.  The account
                # activates around admission too, so queue wait is billed.
                with activate_account(account):
                    with self.server.admission.admit():
                        with tracing.activate(trace_ctx):
                            with tracing.span(f"POST {url.path}"):
                                response = self._dispatch_post(url.path, message)
            wire = to_wire(response)
            if trace_ctx is not None:
                # Embedded after the root span closed, so the caller's tree
                # includes this hop's full server-side duration.
                wire["trace"] = trace_ctx.to_wire()
            if wants_cost:
                # The bill is rendered before this response is serialized,
                # so its ``bytes_out`` excludes the response carrying it;
                # the flight recorder's copy (below) includes it.
                wire["cost"] = account.to_payload()
            account.add_bytes_out(self._send(200, wire))
        except ReproError as error:
            status = _status_for(error)
            failure = error
            self._send_error_response(status, error)
        finally:
            self._observe_request(url.path, started, status, failure, trace_ctx, account, message, response)

    def _observe_request(
        self,
        path: str,
        started: float,
        status: int,
        error: ReproError | None,
        trace_ctx,
        account: ResourceAccount,
        message: object,
        response: object,
    ) -> None:
        """Fold one finished POST into aggregate and forensic telemetry."""
        account.charge_metrics(self.server.service.metrics_registry)
        recorder = self.server.flight_recorder
        duration_ms = (time.perf_counter() - started) * 1000.0
        # Cheap precheck mirroring the recorder's capture predicate: fast
        # healthy requests are counted without building the forensic extras.
        if error is None and status < 400 and duration_ms < recorder.slow_threshold_ms:
            recorder.observe(path=path, duration_ms=duration_ms, status=status)
            return
        trace_id = trace_ctx.trace_id if trace_ctx is not None else None
        recorder.observe(
            path=path,
            duration_ms=duration_ms,
            status=status,
            database=getattr(message, "database", None),
            query=getattr(message, "query", None) or getattr(message, "template", None),
            error={"kind": type(error).__name__, "message": str(error)} if error is not None else None,
            trace=trace_ctx.to_wire() if trace_ctx is not None else None,
            profile=getattr(response, "profile", None),
            cost=account.to_payload(),
            events=events.default_log().tail(trace_id=trace_id) if trace_id is not None else None,
        )

    def _dispatch_post(self, path: str, message: object):
        """Route one parsed POST message to the engine; returns the response."""
        service = self.server.service
        with service.metrics_registry.time(f"http.{path}"):
            if path == "/query":
                request = _expect_type(message, QueryRequest)
                return service.execute(request)
            if path == "/classify":
                request = _expect_type(message, ClassifyRequest)
                return service.classify(request.query)
            if path == "/batch":
                request = _expect_type(message, BatchRequest)
                return service.batch(request.requests)
            if path == "/prepare":
                request = _expect_type(message, PrepareRequest)
                statement = service.prepare(
                    request.database,
                    request.template,
                    request.method,
                    request.engine,
                )
                return _prepare_response(service, statement)
            if path == "/execute":
                request = _expect_type(message, (ExecuteRequest, ExecuteManyRequest))
                if isinstance(request, ExecuteManyRequest):
                    return service.execute_prepared_many(request.statement_id, request.bindings)
                if not request.stream:
                    return service.execute_prepared(request.statement_id, request.params)
                # Refuse the un-streamable shape *before* evaluating: a
                # method="both" statement would pay the (exponential)
                # exact route only to be rejected afterwards.
                if service.statement(request.statement_id).method == "both":
                    raise ServiceError(
                        "streaming needs a single answer route: prepare with "
                        "method 'approx' or 'exact', not 'both'"
                    )
                response = service.execute_prepared(request.statement_id, request.params)
                label = "exact" if response.method == "exact" else "approximate"
                return self.server.cursors.open(response, label, request.page_size)
            request = _expect_type(message, (FetchRequest, CloseRequest))
            if isinstance(request, CloseRequest):
                self.server.cursors.close(request.cursor_id)
                return request
            return self.server.cursors.fetch(request.cursor_id, request.page)

    # Plumbing -----------------------------------------------------------------

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ProtocolError("Content-Length header is not a number") from None
        if length <= 0:
            raise ProtocolError("POST body is empty; send a JSON protocol message")
        if length > MAX_REQUEST_BYTES:
            raise ProtocolError(f"request body of {length} bytes exceeds the {MAX_REQUEST_BYTES} byte limit")
        return self.rfile.read(length)

    def _send(self, status: int, payload: dict, headers: Mapping[str, str] | None = None) -> int:
        """Write one JSON response; returns the body size for the byte bill."""
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        return len(body)

    def _send_message(self, status: int, message: object) -> None:
        self._send(status, to_wire(message))

    def _send_error_response(self, status: int, error: ReproError) -> None:
        # The request body may not have been drained (bad Content-Length,
        # oversized payload), which would desync a keep-alive connection —
        # close it rather than let the leftover bytes parse as a request.
        self.close_connection = True
        headers = None
        if isinstance(error, OverloadedError) and error.retry_after_seconds is not None:
            # HTTP wants integral delta-seconds; round up so the header never
            # invites an earlier retry than the server asked for.  The precise
            # sub-second hint stays in the JSON error message.
            headers = {"Retry-After": str(max(1, math.ceil(error.retry_after_seconds)))}
        self._send(status, to_wire(ErrorResponse.from_exception(error)), headers)

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - http.server API
        if not self.server.quiet:
            super().log_message(format, *args)


def _prepare_response(service: Frontend, statement) -> PrepareResponse:
    """Wire form of a registered statement."""
    return PrepareResponse(
        statement_id=statement.statement_id,
        database=statement.database,
        fingerprint=service.entry(statement.database).fingerprint,
        template=statement.template,
        parameters=statement.parameters,
        arity=statement.arity,
        method=statement.method,
        engine=statement.engine,
    )


def _expect_type(message: object, expected):
    if not isinstance(message, expected):
        name = expected.__name__ if isinstance(expected, type) else " or ".join(t.__name__ for t in expected)
        raise ProtocolError(f"this route expects a {name} message, got {type(message).__name__}")
    return message


def _status_for(error: ReproError) -> int:
    if isinstance(error, (UnknownDatabaseError, UnknownStatementError, UnknownCursorError)):
        return 404
    if isinstance(error, CapacityError):
        return 413
    if isinstance(error, OverloadedError):
        return 503
    if isinstance(error, DeadlineExceededError):
        return 504
    return 400


def make_server(
    service: Frontend,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    max_in_flight: int | None = None,
    max_queue_depth: int | None = None,
    recorder_capacity: int | None = None,
    slow_threshold_ms: float | None = None,
) -> ServiceHTTPServer:
    """Bind a server (``port=0`` picks an ephemeral port); does not serve yet."""
    return ServiceHTTPServer(
        (host, port),
        service,
        quiet=quiet,
        max_in_flight=max_in_flight,
        max_queue_depth=max_queue_depth,
        recorder_capacity=recorder_capacity,
        slow_threshold_ms=slow_threshold_ms,
    )


@contextlib.contextmanager
def running_server(
    service: Frontend,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    max_in_flight: int | None = None,
    max_queue_depth: int | None = None,
    recorder_capacity: int | None = None,
    slow_threshold_ms: float | None = None,
):
    """Context manager: a server serving on a background thread.

    Yields the bound :class:`ServiceHTTPServer`; on exit the server shuts
    down, drains in-flight requests, and the thread joins.  This is how the
    tests and the benchmark run client↔server round trips on an ephemeral
    port.
    """
    server = make_server(
        service,
        host,
        port,
        quiet=quiet,
        max_in_flight=max_in_flight,
        max_queue_depth=max_queue_depth,
        recorder_capacity=recorder_capacity,
        slow_threshold_ms=slow_threshold_ms,
    )
    thread = threading.Thread(target=server.serve_forever, name="repro-service-http", daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.drain()
        server.server_close()


def serve(service: Frontend, host: str = "127.0.0.1", port: int = 8080, quiet: bool = False) -> None:
    """Serve forever in the foreground (the CLI's ``serve`` command)."""
    with make_server(service, host, port, quiet=quiet) as server:
        print(f"repro service listening on {server.base_url}")
        for name in service.database_names():
            print(f"  database {name!r}: {service.entry(name).database.describe()}")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
