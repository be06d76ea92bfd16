"""Prepared statements: plan once, execute many.

Vardi's PODS'85 analysis separates *expression complexity* (the query) from
*data complexity* (the instance).  The ad-hoc request path re-pays the
expression side — parse, classify, optimize, (in a cluster) decompose — on
every arrival, even when millions of requests are the same query template
with different constants.  A *prepared statement* moves that work to a
single ``prepare`` call: the template (a query with ``$name`` parameter
placeholders) is parsed and planned once, and each ``execute`` only binds
constants into the finished artifacts.

This module holds the immutable statement record and the thread-safe,
deduplicating registry that :class:`~repro.service.frontend.Frontend` keeps
for both the single-process service and the cluster router.  Statement ids are
*session state* — a restarted server forgets them, and clients re-prepare
on :class:`~repro.errors.UnknownStatementError`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Mapping

from repro.errors import UnknownStatementError
from repro.logic.printer import query_to_text
from repro.logic.queries import Query
from repro.logic.template import bind_query, query_parameters
from repro.service.protocol import normalize_options

__all__ = ["PreparedStatement", "StatementRegistry"]


@dataclass(frozen=True)
class PreparedStatement:
    """One prepared template: parsed once, bound many times.

    ``template`` is the *canonical* text (the parsed query printed back), so
    two spellings of the same template share plan-cache entries.  ``query``
    is the parsed AST with :class:`~repro.logic.terms.Parameter` terms still
    in place; :meth:`bind` substitutes a concrete binding without re-parsing.
    """

    statement_id: str
    database: str
    template: str
    query: Query
    method: str
    engine: str
    parameters: tuple[str, ...]
    arity: int

    def bind(self, values: Mapping[str, str]) -> tuple[Query, str]:
        """The bound (parameter-free) query and its rendered text."""
        bound = bind_query(self.query, values)
        return bound, query_to_text(bound)

    def dedup_key(self) -> tuple:
        """Statements with equal keys are interchangeable (one registry slot)."""
        return (self.database, self.template, self.method, self.engine)


class StatementRegistry:
    """Thread-safe statement store, deduplicating by content.

    Preparing the same (database, template, options) twice returns the
    *same* statement — the registry's size is bounded by the number of
    distinct templates a deployment actually uses, not by how often clients
    call ``prepare``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_id: dict[str, PreparedStatement] = {}
        self._by_key: dict[tuple, PreparedStatement] = {}
        self._ids = itertools.count(1)

    def intern(
        self,
        database: str,
        query: Query,
        method: str,
        engine: str,
    ) -> tuple[PreparedStatement, bool]:
        """Register (or find) a statement; returns ``(statement, created)``.

        Options normalize exactly as on an ad-hoc request, so a prepared
        execution lands on the same answer-cache slot as its bound text.
        """
        method, engine = normalize_options(method, engine)
        template = query_to_text(query)
        key = (database, template, method, engine)
        with self._lock:
            existing = self._by_key.get(key)
            if existing is not None:
                return existing, False
            statement = PreparedStatement(
                statement_id=f"stmt-{next(self._ids)}",
                database=database,
                template=template,
                query=query,
                method=method,
                engine=engine,
                parameters=query_parameters(query),
                arity=query.arity,
            )
            self._by_id[statement.statement_id] = statement
            self._by_key[key] = statement
            return statement, True

    def get(self, statement_id: str) -> PreparedStatement:
        with self._lock:
            statement = self._by_id.get(statement_id)
        if statement is None:
            raise UnknownStatementError(
                f"unknown prepared statement {statement_id!r} — statements are per-server "
                "session state; re-prepare after a reconnect or server restart"
            )
        return statement

    def deallocate(self, statement_id: str) -> None:
        """Drop one statement (idempotent errors: unknown ids raise)."""
        with self._lock:
            statement = self._by_id.pop(statement_id, None)
            if statement is not None:
                self._by_key.pop(statement.dedup_key(), None)
        if statement is None:
            raise UnknownStatementError(f"unknown prepared statement {statement_id!r}")

    def drop_database(self, name: str) -> int:
        """Forget every statement prepared against *name* (on unregister)."""
        with self._lock:
            doomed = [s for s in self._by_id.values() if s.database == name]
            for statement in doomed:
                del self._by_id[statement.statement_id]
                self._by_key.pop(statement.dedup_key(), None)
        return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)
