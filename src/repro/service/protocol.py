"""JSON request/response messages of the query service (protocol v2).

One wire format serves three consumers: the HTTP front-end
(:mod:`repro.service.server`), the keep-alive client
(:mod:`repro.service.client`) and the ``--json`` mode of the human CLI —
they all serialize through the dataclasses below, so a response printed by
``repro query --json`` is byte-compatible with what the server returns.

Every message carries ``"type"`` (its message kind) and ``"v"`` (the
protocol version).  :func:`parse_wire` is the single entry point for
deserialization; it validates the version and dispatches on the type tag.

**Versioning.**  The library speaks protocol v2 only: ad-hoc queries, the
session API — prepared statements (:class:`PrepareRequest` /
:class:`PrepareResponse` / :class:`ExecuteRequest` /
:class:`ExecuteManyRequest`) and chunked result streaming
(:class:`CursorResponse` / :class:`FetchRequest` / :class:`PageResponse`) —
the stable ``code`` field on :class:`ErrorResponse` and version
advertisement on :class:`HealthResponse`.  An envelope claiming any other
version, v1 included, is refused with a :class:`~repro.errors.ProtocolError`
("unsupported protocol version"); see ``docs/protocol.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Iterable, Mapping, Sequence

from repro.complexity.classes import QueryClassification
from repro.errors import ProtocolError, ServiceError, wire_code
from repro.logical.database import CWDatabase

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "DEFAULT_PAGE_SIZE",
    "METHODS",
    "ENGINES",
    "normalize_options",
    "QueryRequest",
    "QueryResponse",
    "ClassifyRequest",
    "ClassifyResponse",
    "InfoResponse",
    "HealthResponse",
    "DatabasesResponse",
    "StatsResponse",
    "MetricsResponse",
    "BatchRequest",
    "BatchResponse",
    "ErrorResponse",
    "PrepareRequest",
    "PrepareResponse",
    "ExecuteRequest",
    "ExecuteManyRequest",
    "CloseRequest",
    "CursorResponse",
    "FetchRequest",
    "PageResponse",
    "PackedRows",
    "canonical_rows",
    "answers_to_wire",
    "answers_from_wire",
    "build_info_response",
    "build_classify_response",
    "parse_wire",
    "wire_version",
    "dump_wire",
]

#: The protocol version this library stamps on every envelope.
PROTOCOL_VERSION = 2

SUPPORTED_PROTOCOL_VERSIONS = (2,)

#: Default rows-per-page of a streamed (cursor) result.
DEFAULT_PAGE_SIZE = 1024

METHODS = ("approx", "exact", "both")
ENGINES = ("tarski", "algebra", "auto")


def normalize_options(method: str, engine: str) -> tuple[str, str]:
    """Validate evaluation options and normalize the exact route.

    The single source of this rule — :class:`QueryRequest`,
    :class:`PrepareRequest` and the statement registry all delegate here, so
    an ad-hoc request and a prepared statement can never normalize
    differently (they must share answer-cache slots).  The exact route never
    consults the approximation engine, so that field collapses to a
    canonical value and all equivalent exact requests compare equal (one
    cache slot, batch dedup hit).
    """
    if method not in METHODS:
        raise ServiceError(f"unknown method {method!r}; expected one of {METHODS}")
    if engine not in ENGINES:
        raise ServiceError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if method == "exact":
        return method, "algebra"
    return method, engine


def canonical_rows(answers: Iterable[tuple[str, ...]]) -> tuple[tuple[str, ...], ...]:
    """An answer set's rows in the canonical wire order: one sort, no copies.

    Sorting the row tuples gives the order :func:`answers_to_wire` gives by
    sorting lists, so both spell the same JSON.
    """
    return tuple(sorted(answers))


def answers_to_wire(answers: Iterable[Sequence[str]]) -> list[list[str]]:
    """Canonical JSON form of an answer set: sorted list of string lists."""
    return sorted([list(row) for row in answers])


def answers_from_wire(rows: Iterable[Sequence[str]]) -> frozenset[tuple[str, ...]]:
    """Inverse of :func:`answers_to_wire`."""
    return frozenset(tuple(row) for row in rows)


@dataclass(frozen=True, slots=True)
class PackedRows:
    """Answer rows held as one flat tuple of cells, ``arity`` cells a row.

    The compact form of ``QueryResponse.answers[label]`` that the answer
    cache and the cursor store keep.  A binary row costs 64 bytes as a
    tuple inside a tuple (a 40-byte header, two cells, its slot in the outer
    tuple) and 16 bytes packed.  :meth:`rows` rebuilds row tuples (all of
    them, or one page) on demand.  A Boolean answer — ``()`` or
    ``((),)`` — packs to no cells, arity 0 and a count of 0 or 1.
    """

    cells: tuple[str, ...]
    arity: int
    count: int

    @classmethod
    def pack(cls, rows: Sequence[tuple[str, ...]]) -> "PackedRows":
        arity = len(rows[0]) if rows else 0
        return cls(tuple(chain.from_iterable(rows)), arity, len(rows))

    def rows(self, start: int = 0, stop: int | None = None) -> tuple[tuple[str, ...], ...]:
        """Rows ``start:stop`` (clipped to the answer), as row tuples."""
        stop = self.count if stop is None else min(stop, self.count)
        if start >= stop:
            return ()
        if self.arity == 0:
            return ((),) * (stop - start)
        cells = iter(self.cells[start * self.arity:stop * self.arity])
        return tuple(zip(*[cells] * self.arity))


@dataclass(frozen=True)
class QueryRequest:
    """A single query against a registered database snapshot.

    Instances double as cache/deduplication keys: two requests are equal
    exactly when they would produce the same answer on the same snapshot.
    ``profile=True`` asks for an EXPLAIN ANALYZE payload alongside the
    answers; it joins the cache key so a profiled request never collides
    with a profile-less cached response (and vice versa).  Unknown wire keys
    are dropped by :func:`parse_wire`, so the ``NE``-encoding flag older
    clients still send changes nothing: ``NE`` has one encoding.
    """

    database: str
    query: str
    method: str = "approx"
    engine: str = "algebra"
    profile: bool = False

    def __post_init__(self) -> None:
        __, engine = normalize_options(self.method, self.engine)
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "profile", bool(self.profile))


@dataclass(frozen=True)
class QueryResponse:
    """Answers for one :class:`QueryRequest`.

    ``answers`` maps a route label (``"approximate"`` and/or ``"exact"``) to
    the wire form of its answer set.  ``complete`` is only meaningful for
    ``method="both"``: whether the approximation matched the exact answers.
    ``profile`` carries the EXPLAIN ANALYZE payload (operator tree with
    rows / wall time / access path / memo hits) when the request asked for
    one; it lives inside the cached response, so repeated cached profiled
    executions return byte-identical profiles.

    ``degraded`` marks an answer served from a router's stale-response
    cache because no live replica could be reached (the opt-in
    ``degraded="stale_cache"`` router mode).  The answer was byte-identical
    to a fresh one when it was cached — snapshots are immutable — but the
    flag is the honest signal that the cluster, not a worker, produced it.
    A pre-resilience peer ignores the field (``parse_wire`` filters unknown
    keys), so it needs no protocol version bump.

    ``cost`` is the per-request resource bill (``repro-cost/v1``: rows
    scanned/emitted, operator wall time, cache hits, queue wait, retries,
    bytes on the wire), attached by the serving edge at response time —
    never stored in the answer cache, so cached responses stay
    byte-identical across servings.  Like ``degraded``, unknown-key
    filtering makes it wire-compatible with pre-accounting peers.
    """

    database: str
    fingerprint: str
    query: str
    method: str
    engine: str
    arity: int
    answers: Mapping[str, tuple[tuple[str, ...], ...]]
    complete: bool | None = None
    missed: int | None = None
    cached: bool = False
    elapsed_seconds: float = 0.0
    profile: Mapping[str, object] | None = None
    degraded: bool = False
    cost: Mapping[str, object] | None = None

    def answer_set(self, label: str) -> frozenset[tuple[str, ...]]:
        """The answer set for *label* as the library's frozenset-of-tuples."""
        try:
            rows = self.answers[label]
        except KeyError:
            raise ServiceError(f"response has no {label!r} answers (method was {self.method!r})") from None
        return answers_from_wire(rows)


@dataclass(frozen=True)
class ClassifyRequest:
    """Ask for a query's syntactic class and the paper's complexity bounds."""

    query: str


@dataclass(frozen=True)
class ClassifyResponse:
    """Wire form of :class:`~repro.complexity.classes.QueryClassification`."""

    query: str
    is_first_order: bool
    prefix_class: str
    is_positive: bool
    logical_data_complexity: str
    logical_combined_complexity: str
    summary: str


@dataclass(frozen=True)
class InfoResponse:
    """Summary of one registered (or loaded) CW logical database."""

    name: str
    fingerprint: str
    constants: int
    predicates: Mapping[str, Mapping[str, int]]
    uniqueness_axioms: int
    unknown_constants: tuple[str, ...]
    fully_specified: bool
    description: str


@dataclass(frozen=True)
class HealthResponse:
    """Liveness probe result, advertising the protocol versions spoken.

    The cluster router reads ``protocol_versions`` off worker health checks.
    """

    status: str
    library_version: str
    protocol_versions: tuple[int, ...] = SUPPORTED_PROTOCOL_VERSIONS

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol_versions", tuple(int(v) for v in self.protocol_versions))


@dataclass(frozen=True)
class DatabasesResponse:
    """The names of every registered snapshot."""

    databases: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "databases", tuple(self.databases))


@dataclass(frozen=True)
class StatsResponse:
    """Service-level counters: registered snapshots and cache behaviour.

    ``plan_cache`` reports the LRU of plans, one per query shape (hits mean
    a query skipped rewrite-compile-optimize).  ``cluster`` is filled by the
    sharded router front-end (:mod:`repro.cluster.router`): per-plan-kind
    routing counters, failovers, and one stats summary per worker.
    ``prepared`` reports the session API: templates registered, statements
    held, executions, and how many executions ran the template plan.  All
    three default to empty mappings so messages from servers predating them
    still parse (and unknown fields, such as the ``feedback`` section older
    servers send, are dropped).
    """

    databases: tuple[str, ...]
    answer_cache: Mapping[str, object]
    parse_cache: Mapping[str, object]
    batch: Mapping[str, int]
    uptime_seconds: float
    plan_cache: Mapping[str, object] = field(default_factory=dict)
    cluster: Mapping[str, object] = field(default_factory=dict)
    prepared: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class MetricsResponse:
    """A telemetry snapshot: counters, gauges, latency histograms.

    Served at ``GET /metrics``.  ``histograms`` maps a metric name (e.g.
    ``"query.algebra"``) to its log-bucketed distribution with precomputed
    ``p50``/``p95``/``p99`` upper bounds in seconds (see
    :mod:`repro.observability.metrics`).  The cluster router answers with
    the merged view across its own registry and every reachable worker;
    quantiles are recomputed from the merged buckets, never summed.
    """

    counters: Mapping[str, int] = field(default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    uptime_seconds: float = 0.0


@dataclass(frozen=True)
class BatchRequest:
    """Many query requests evaluated together (deduplicated, concurrent)."""

    requests: tuple[QueryRequest, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))


@dataclass(frozen=True)
class BatchResponse:
    """Positional responses for a batch; ``responses[i]`` answers request i.

    Failed items carry an :class:`ErrorResponse` in their slot so one bad
    query cannot poison the rest of the batch.
    """

    responses: tuple[QueryResponse | ErrorResponse, ...]
    total: int
    unique: int
    deduplicated: int


@dataclass(frozen=True)
class ErrorResponse:
    """A structured error: a stable code, the exception kind, the message.

    ``code`` is the wire contract (:data:`repro.errors.WIRE_ERROR_CODES`):
    clients re-raise the matching typed exception instead of pattern-matching
    messages.  ``kind`` (the Python class name) stays for humans and logs.
    """

    error: str
    kind: str = "ServiceError"
    code: str = "service"

    @classmethod
    def from_exception(cls, error: BaseException) -> "ErrorResponse":
        return cls(error=str(error), kind=type(error).__name__, code=wire_code(error))


# Protocol v2: the session API --------------------------------------------------


@dataclass(frozen=True)
class PrepareRequest:
    """Register a query template (with ``$name`` parameters) for execution.

    Options mean exactly what they mean on :class:`QueryRequest`, with the
    same exact-route normalization, so a prepared execution is always
    byte-identical to the equivalent ad-hoc request.
    """

    database: str
    template: str
    method: str = "approx"
    engine: str = "algebra"

    def __post_init__(self) -> None:
        __, engine = normalize_options(self.method, self.engine)
        object.__setattr__(self, "engine", engine)


@dataclass(frozen=True)
class PrepareResponse:
    """A registered statement: its server-side id and what it needs bound.

    ``template`` is the canonical rendering of the parsed template (the
    server's spelling, not the client's); ``parameters`` the sorted ``$``
    names every execution must bind.
    """

    statement_id: str
    database: str
    fingerprint: str
    template: str
    parameters: tuple[str, ...]
    arity: int
    method: str
    engine: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", tuple(self.parameters))


@dataclass(frozen=True)
class ExecuteRequest:
    """Execute a prepared statement under one parameter binding.

    With ``stream=False`` the answer arrives as an ordinary
    :class:`QueryResponse` body.  With ``stream=True`` the server materializes
    the answer into a cursor and replies with a :class:`CursorResponse`; the
    client then pulls :class:`PageResponse` chunks via :class:`FetchRequest`
    — large answer sets never travel as one giant JSON body.  Streaming
    requires a single answer route (``method`` ``approx`` or ``exact``).
    """

    statement_id: str
    params: Mapping[str, str] = field(default_factory=dict)
    stream: bool = False
    page_size: int = DEFAULT_PAGE_SIZE

    def __post_init__(self) -> None:
        params = dict(self.params)
        for name, value in params.items():
            if not isinstance(name, str) or not isinstance(value, str):
                raise ServiceError(f"parameter bindings must map names to strings, got {name!r}={value!r}")
        object.__setattr__(self, "params", params)
        if not isinstance(self.page_size, int) or self.page_size < 1:
            raise ServiceError(f"page_size must be a positive integer, got {self.page_size!r}")


@dataclass(frozen=True)
class ExecuteManyRequest:
    """Execute one prepared statement under many bindings (a parameter sweep).

    Answered by a :class:`BatchResponse`: positional, deduplicated, with
    per-binding failures isolated as :class:`ErrorResponse` slots.
    """

    statement_id: str
    bindings: tuple[Mapping[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "bindings", tuple(dict(binding) for binding in self.bindings))


@dataclass(frozen=True)
class CursorResponse:
    """The header of a streamed answer: cursor id, paging shape, metadata.

    Mirrors every :class:`QueryResponse` field except the answer rows
    themselves, which arrive chunked through :class:`FetchRequest` /
    :class:`PageResponse`.  Reassembling all pages in order yields exactly
    ``canonical_rows`` of the answer set — byte-identical to the
    single-body response.  Cursors are bounded server-side state and may be
    evicted; fetching pages is idempotent until then.
    """

    cursor_id: str
    database: str
    fingerprint: str
    query: str
    method: str
    engine: str
    arity: int
    label: str
    total_rows: int
    page_size: int
    pages: int
    complete: bool | None = None
    missed: int | None = None
    cached: bool = False
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class FetchRequest:
    """Pull one page of a streamed answer (0-based page index)."""

    cursor_id: str
    page: int

    def __post_init__(self) -> None:
        if not isinstance(self.page, int) or self.page < 0:
            raise ServiceError(f"page must be a non-negative integer, got {self.page!r}")


@dataclass(frozen=True)
class CloseRequest:
    """Drop a streamed answer's cursor; the server answers with the same message.

    Idempotent: closing an unknown (already closed or evicted) cursor
    succeeds too.
    """

    cursor_id: str


@dataclass(frozen=True)
class PageResponse:
    """One chunk of a streamed answer, in the canonical sorted order."""

    cursor_id: str
    page: int
    rows: tuple[tuple[str, ...], ...]
    last: bool


_MESSAGE_TYPES: dict[str, type] = {
    "query_request": QueryRequest,
    "query_response": QueryResponse,
    "classify_request": ClassifyRequest,
    "classify_response": ClassifyResponse,
    "info_response": InfoResponse,
    "health": HealthResponse,
    "databases": DatabasesResponse,
    "stats_response": StatsResponse,
    "metrics_response": MetricsResponse,
    "batch_request": BatchRequest,
    "batch_response": BatchResponse,
    "error": ErrorResponse,
    "prepare_request": PrepareRequest,
    "prepare_response": PrepareResponse,
    "execute_request": ExecuteRequest,
    "execute_many_request": ExecuteManyRequest,
    "cursor_response": CursorResponse,
    "fetch_request": FetchRequest,
    "close_request": CloseRequest,
    "page_response": PageResponse,
}
_TYPE_TAGS = {cls: tag for tag, cls in _MESSAGE_TYPES.items()}


def to_wire(message: object) -> dict[str, object]:
    """Serialize a protocol dataclass to a JSON-compatible dict.

    The envelope is shallow: field values are shared with *message*, not
    copied (``json`` writes a tuple as an array, so answer rows need no
    conversion).  Callers may add top-level keys to the returned dict, as
    the server does with ``trace`` and ``cost``, but must not mutate the
    values it shares.
    """
    tag = _TYPE_TAGS.get(type(message))
    if tag is None:
        raise ProtocolError(f"not a protocol message: {type(message).__name__}")
    payload: dict[str, object] = {f.name: getattr(message, f.name) for f in fields(message)}
    # Batch items are messages themselves: each needs its own type tag.
    if isinstance(message, BatchRequest):
        payload["requests"] = [to_wire(request) for request in message.requests]
    elif isinstance(message, BatchResponse):
        payload["responses"] = [to_wire(response) for response in message.responses]
    payload["type"] = tag
    payload["v"] = PROTOCOL_VERSION
    return payload


def dump_wire(message: object, indent: int | None = None) -> str:
    """JSON text of a protocol message (the CLI's ``--json`` output)."""
    return json.dumps(to_wire(message), indent=indent, sort_keys=True)


def wire_version(payload: Mapping[str, object] | str | bytes) -> int:
    """The protocol version a raw payload claims (without fully parsing it)."""
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"payload is not valid JSON: {error}") from None
    if not isinstance(payload, Mapping) or "v" not in payload:
        raise ProtocolError("message is missing the protocol version field 'v'")
    version = payload["v"]
    if version not in SUPPORTED_PROTOCOL_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this library speaks {SUPPORTED_PROTOCOL_VERSIONS})"
        )
    return int(version)  # type: ignore[arg-type]


def parse_wire(payload: Mapping[str, object] | str | bytes) -> object:
    """Deserialize one protocol message, validating version and type tag."""
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"payload is not valid JSON: {error}") from None
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"payload must be a JSON object, got {type(payload).__name__}")
    wire_version(payload)
    tag = payload.get("type")
    if not isinstance(tag, str):
        raise ProtocolError(f"message type must be a string, got {type(tag).__name__}")
    message_type = _MESSAGE_TYPES.get(tag)
    if message_type is None:
        raise ProtocolError(f"unknown message type {tag!r}")
    known = {f.name for f in fields(message_type)}
    arguments = {key: value for key, value in payload.items() if key in known}
    try:
        if message_type is BatchRequest:
            arguments["requests"] = tuple(
                _expect(parse_wire(item), QueryRequest) for item in arguments.get("requests", ())
            )
        if message_type is BatchResponse:
            arguments["responses"] = tuple(
                _expect(parse_wire(item), (QueryResponse, ErrorResponse))
                for item in arguments.get("responses", ())
            )
        if message_type is QueryResponse:
            arguments["answers"] = {
                label: tuple(tuple(row) for row in rows)
                for label, rows in dict(arguments.get("answers", {})).items()
            }
        if message_type is PageResponse and "rows" in arguments:
            arguments["rows"] = tuple(tuple(row) for row in arguments["rows"])
        if message_type is InfoResponse:
            arguments["unknown_constants"] = tuple(arguments.get("unknown_constants", ()))
        if message_type in (StatsResponse, DatabasesResponse):
            arguments["databases"] = tuple(arguments.get("databases", ()))
        if message_type is ExecuteManyRequest:
            bindings = arguments.get("bindings", ())
            if not all(isinstance(binding, Mapping) for binding in bindings):
                raise ProtocolError("execute_many_request bindings must be JSON objects")
            arguments["bindings"] = tuple(dict(binding) for binding in bindings)
        if message_type is ExecuteRequest and "params" in arguments:
            if not isinstance(arguments["params"], Mapping):
                raise ProtocolError("execute_request params must be a JSON object")
            arguments["params"] = dict(arguments["params"])
        return message_type(**arguments)
    except ProtocolError:
        raise
    except (TypeError, ServiceError) as error:
        raise ProtocolError(f"malformed {tag} message: {error}") from None


def _expect(message: object, types) -> object:
    if not isinstance(message, types):
        raise ProtocolError(f"unexpected nested message {type(message).__name__}")
    return message


# Builders shared by the engine and the human CLI ------------------------------


def build_info_response(name: str, database: CWDatabase) -> InfoResponse:
    """Describe a CW database in wire form (used by ``info`` and ``/info``)."""
    return InfoResponse(
        name=name,
        fingerprint=database.fingerprint(),
        constants=len(database.constants),
        predicates={
            predicate: {"arity": arity, "facts": len(database.facts_for(predicate))}
            for predicate, arity in sorted(database.predicates.items())
        },
        uniqueness_axioms=database.uniqueness_axiom_count(),
        unknown_constants=tuple(sorted(database.unknown_constants())),
        fully_specified=database.is_fully_specified,
        description=database.describe(),
    )


def build_classify_response(query_text: str, classification: QueryClassification) -> ClassifyResponse:
    """Wire form of a classification (used by ``classify`` and ``/classify``)."""
    return ClassifyResponse(
        query=query_text,
        is_first_order=classification.is_first_order,
        prefix_class=classification.prefix_class,
        is_positive=classification.is_positive,
        logical_data_complexity=classification.logical_data_complexity,
        logical_combined_complexity=classification.logical_combined_complexity,
        summary=classification.summary(),
    )
