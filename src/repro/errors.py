"""Exception hierarchy for the ``repro`` library.

All exceptions raised deliberately by the library derive from
:class:`ReproError`, so callers can catch a single base class.  The
sub-classes mirror the main subsystems: the logic substrate, physical
databases, closed-world logical databases, and the evaluation engines.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class FormulaError(ReproError):
    """A formula is structurally invalid (bad arity, wrong node types...)."""


class ParseError(ReproError):
    """The query-language parser rejected its input.

    Attributes
    ----------
    position:
        Zero-based character offset at which the error was detected, or
        ``None`` when the offset is not meaningful (e.g. unexpected end of
        input is reported at ``len(text)``).
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class VocabularyError(ReproError):
    """A formula, query or database does not match its relational vocabulary."""


class DatabaseError(ReproError):
    """A physical or logical database is malformed."""


class EvaluationError(ReproError):
    """Query evaluation could not proceed (unbound variable, unknown symbol...)."""


class UnsupportedFormulaError(EvaluationError):
    """An evaluator met a formula kind it cannot handle.

    Raised for instance when the algebra compiler meets a second-order
    quantifier or an unsafe (non range-restricted) sub-formula.
    """


class CapacityError(EvaluationError):
    """A combinatorial enumeration would exceed the configured safety bound.

    Exact certain-answer evaluation and second-order evaluation are
    exponential by nature (that intractability is the point of the paper);
    the evaluators refuse to silently launch astronomically large
    enumerations and raise this exception instead.
    """


class UnboundParameterError(EvaluationError):
    """A query template reached evaluation with unbound ``$name`` parameters.

    Parameters type as constants for every *syntactic* purpose, but they
    denote no value until a prepared-query binding substitutes one; an
    engine asked to evaluate an unbound template refuses rather than guess.
    """


class ReductionError(ReproError):
    """A complexity reduction received an input outside its expected shape."""


class ServiceError(ReproError):
    """The query service rejected a request (unknown database, bad option...)."""


class UnknownDatabaseError(ServiceError):
    """A request named a database snapshot that is not registered.

    Distinguished from plain :class:`ServiceError` so the HTTP front-end can
    map it to 404 without inspecting error messages.
    """


class ServiceClosedError(ServiceError):
    """An operation was attempted on a closed service or cluster router.

    Closing a front-end is terminal: its shared thread pools are shut down
    and must not be silently recreated (that used to leak a fresh pool on
    every post-close batch).  Both a repeated ``close()`` and a post-close
    ``batch()`` raise this error.
    """


class ServiceUnavailableError(ServiceError):
    """The remote service could not be reached at the transport level.

    Raised by the HTTP client for connection refusals, DNS failures and
    timeouts — situations where no protocol-level answer exists at all.
    Distinguished from plain :class:`ServiceError` so the cluster router can
    tell "this worker is down, fail over to a replica" apart from "the worker
    answered with an application error".

    Attributes
    ----------
    sent_request:
        Whether the request had been handed to the transport before the
        failure.  ``False`` means the server provably never saw the request
        (connect refused, DNS failure, send-side framing error) — always
        safe to retry anywhere.  ``True`` means the failure is *ambiguous*
        (reset or timeout while awaiting the response): the server may have
        executed the request, so a retry policy must only replay requests
        that are idempotent.
    """

    def __init__(self, message: str, *, sent_request: bool = True) -> None:
        super().__init__(message)
        self.sent_request = sent_request


class DeadlineExceededError(ServiceError):
    """A request overran its propagated deadline and was abandoned.

    Raised server-side at engine/executor checkpoints (so a doomed query
    stops burning CPU) and router-side when the remaining budget cannot
    cover another attempt.  Mapped to HTTP 504 and wire code
    ``deadline_exceeded``.  Deliberately *not* retried by the router: the
    budget is the client's to respend.
    """


class OverloadedError(ServiceError):
    """The server shed this request at admission rather than queue it.

    Signals transient backpressure, not failure: the request never reached
    the engine, so it is always safe to retry after a pause.  Mapped to
    HTTP 503 (with a ``Retry-After`` hint) and wire code ``overloaded``.

    Attributes
    ----------
    retry_after_seconds:
        The server's pacing hint, surfaced as the ``Retry-After`` response
        header; ``None`` when the server offered none.
    """

    def __init__(self, message: str, *, retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class ProtocolError(ServiceError):
    """A wire payload does not conform to the JSON service protocol."""


class ClusterError(ServiceError):
    """The cluster layer cannot satisfy a request (no live replica, bad layout...)."""


class UnknownStatementError(ServiceError):
    """A request named a prepared-statement id the service does not hold.

    Statements live in server memory: a restarted server (or a failover to
    a different router) forgets them, and clients are expected to re-prepare
    on receiving this error.
    """


class UnknownCursorError(ServiceError):
    """A fetch named a streaming cursor that does not exist (or was evicted).

    Cursors are bounded server-side state; an evicted or unknown cursor
    means the client must re-execute the statement to stream again.
    """


class SnapshotStoreError(ReproError):
    """The persistent snapshot store is malformed or an operation on it failed."""


# Wire error codes --------------------------------------------------------------

#: Stable code → exception class, the contract between ``ErrorResponse.code``
#: and the typed exception a client raises.  Codes are part of the wire
#: protocol: never change an existing code, only add new ones.  Order is by
#: specificity — :func:`wire_code` walks an exception's MRO, so a subclass
#: maps to its own code and unknown subclasses fall back to their parent's.
WIRE_ERROR_CODES: dict[str, type] = {
    "formula": FormulaError,
    "parse": ParseError,
    "vocabulary": VocabularyError,
    "database": DatabaseError,
    "evaluation": EvaluationError,
    "unsupported_formula": UnsupportedFormulaError,
    "capacity": CapacityError,
    "unbound_parameter": UnboundParameterError,
    "reduction": ReductionError,
    "service": ServiceError,
    "unknown_database": UnknownDatabaseError,
    "service_closed": ServiceClosedError,
    "unavailable": ServiceUnavailableError,
    "deadline_exceeded": DeadlineExceededError,
    "overloaded": OverloadedError,
    "protocol": ProtocolError,
    "cluster": ClusterError,
    "unknown_statement": UnknownStatementError,
    "unknown_cursor": UnknownCursorError,
    "snapshot_store": SnapshotStoreError,
    "error": ReproError,
}

_CLASS_TO_CODE = {cls: code for code, cls in WIRE_ERROR_CODES.items()}


def wire_code(error: BaseException) -> str:
    """The stable wire code for *error* (nearest registered ancestor class)."""
    for cls in type(error).__mro__:
        code = _CLASS_TO_CODE.get(cls)
        if code is not None:
            return code
    return "error"


def error_for_code(code: str, message: str) -> ReproError:
    """Rebuild the typed exception a wire error code denotes.

    Unknown codes (a newer server) degrade to plain :class:`ServiceError`
    rather than failing: the message still carries the server's diagnosis.
    """
    cls = WIRE_ERROR_CODES.get(code, ServiceError)
    if cls is ParseError:
        # ParseError's constructor takes (message, position); the position
        # is already baked into the formatted message on the wire.
        return ParseError(message)
    return cls(message)
