"""One request's context: its deadline, resource account, trace and span.

What a request carries down the stack without parameter threading lives in
one immutable :class:`RequestContext`, held by one context variable.
``current_deadline``, ``current_account``, ``current_trace`` and
``current_span_id`` are each one read of it, so the disabled path costs
one read.  :func:`scope` replaces fields for a block and restores the
previous context on exit, so nesting (a server thread driving an
in-process router) unwinds correctly.  A new thread starts with an empty
context, so a task handed to a pool is wrapped in :func:`carry`: it
inherits the request's remaining budget, charges the request's bill
(int adds under the GIL are safe across concurrent tasks) and nests its
spans under the submitting span.

A leaf module: it imports nothing else from :mod:`repro`.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Any, Callable, Iterator, NamedTuple, TypeVar

__all__ = ["CURRENT", "RequestContext", "carry", "current", "scope"]


class RequestContext(NamedTuple):
    """The request state riding the current thread (``None`` is off)."""

    deadline: Any = None  # repro.resilience.deadlines.Deadline
    account: Any = None  # repro.observability.accounting.ResourceAccount
    trace: Any = None  # repro.observability.tracing.Trace
    span_id: str | None = None  # the open span new spans nest under


#: ``tracing.span`` sets and resets it directly: no nested context manager.
CURRENT: ContextVar[RequestContext] = ContextVar("repro_request_context", default=RequestContext())

#: The active context: one C-level read, with no Python frame around it.
current = CURRENT.get


@contextlib.contextmanager
def scope(**fields) -> Iterator[RequestContext]:
    """Run the block with *fields* (``deadline=``, ``account=``, ...) replaced.

    A field set to ``None`` is off for the block; an unnamed one is kept.
    """
    replaced = CURRENT.get()._replace(**fields)
    token = CURRENT.set(replaced)
    try:
        yield replaced
    finally:
        CURRENT.reset(token)


_Result = TypeVar("_Result")


def carry(task: Callable[..., _Result]) -> Callable[..., _Result]:
    """*task*, to run on a pool thread under the calling thread's context."""
    captured = CURRENT.get()

    def carried(*args, **kwargs) -> _Result:
        token = CURRENT.set(captured)
        try:
            return task(*args, **kwargs)
        finally:
            CURRENT.reset(token)

    return carried
