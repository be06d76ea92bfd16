"""The session front-end shared by the single-process service and the cluster.

Vardi's split between expression work (the query) and data work (the
instance) shows up in the serving layer as a session surface: parse once,
prepare a template once, then bind and evaluate many times.  That surface is
the same whether one in-process :class:`~repro.service.engine.QueryService`
answers or a :class:`~repro.cluster.router.ClusterRouter` fans out over
shard workers, so :class:`Frontend` owns it once — statement registry, parse
and plan caches, batches, warm-up, the shared ``stats()`` fields, metrics
registry, thread pools and the terminal ``close()`` — and a subclass says
only how a request is evaluated: ``execute`` for an ad-hoc request and
:meth:`Frontend._execute_bound` for one bound prepared statement.  In the
single-process service both end on one route: an ad-hoc request is lifted
to its shape (its constants become parameters), so it runs on the same
cached template plan as a prepared execution of that shape would.
"""

from __future__ import annotations

import abc
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

from repro.complexity.classes import classify_query
from repro.errors import ReproError, ServiceClosedError
from repro.logic.parser import parse_query
from repro.logic.queries import Query
from repro.observability.metrics import MetricsRegistry
from repro.service.batch import DEFAULT_MAX_WORKERS, BatchEvaluator, PreparedBatchEvaluator
from repro.service.cache import LRUCache
from repro.service.prepared import PreparedStatement, StatementRegistry
from repro.service.protocol import (
    BatchResponse,
    ClassifyResponse,
    InfoResponse,
    MetricsResponse,
    QueryRequest,
    QueryResponse,
    StatsResponse,
    build_classify_response,
    build_info_response,
    check_method,
)

__all__ = ["Frontend", "WarmupReport"]

DEFAULT_PARSE_CACHE_CAPACITY = 512
DEFAULT_PLAN_CACHE_CAPACITY = 1024


@dataclass(frozen=True)
class WarmupReport:
    """Outcome of replaying a recorded traffic log through the caches.

    ``failed`` counts requests that raised (unknown database, parse
    error...); warm-up is best-effort, so failures are tallied rather than
    aborting the boot sequence.
    """

    total: int
    warmed: int
    already_cached: int
    failed: int


class Frontend(abc.ABC):
    """Session state and the request surface common to every front-end.

    The capacities size the parse cache and the plan cache, which holds what
    a subclass derives from a query: compiled algebra plans per query shape
    locally, route decompositions per query text in a cluster.
    """

    def __init__(
        self,
        parse_cache_capacity: int = DEFAULT_PARSE_CACHE_CAPACITY,
        plan_cache_capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
    ) -> None:
        #: Guards every counter below, the thread pools, and any state a
        #: subclass keeps beside them.
        self._registry_lock = threading.Lock()
        self._parses = LRUCache(parse_cache_capacity)
        self._plans = LRUCache(plan_cache_capacity)
        self._statements = StatementRegistry()
        self._prepared = {"templates": 0, "executions": 0}
        self._batch = {"executed": 0, "deduplicated": 0}
        self._started = time.monotonic()
        self._pools: dict[str, ThreadPoolExecutor] = {}
        self._closed = False
        #: Request telemetry (counters + latency histograms), served at
        #: ``GET /metrics``; recording is a single lock acquire per request.
        self.metrics_registry = MetricsRegistry()

    # What a subclass decides ----------------------------------------------------

    @abc.abstractmethod
    def entry(self, name: str):
        """The :class:`~repro.service.engine.RegisteredDatabase` named *name*."""

    @abc.abstractmethod
    def database_names(self) -> tuple[str, ...]:
        """Every database this front-end answers for, sorted."""

    @abc.abstractmethod
    def execute(self, request: QueryRequest) -> QueryResponse:
        """Evaluate one ad-hoc request."""

    @abc.abstractmethod
    def metrics(self) -> MetricsResponse:
        """A telemetry snapshot for ``GET /metrics``."""

    @abc.abstractmethod
    def _execute_bound(
        self,
        statement: PreparedStatement,
        request: QueryRequest,
        bound: Query,
        values: Mapping[str, str],
    ) -> QueryResponse:
        """Evaluate *statement* under *values*: the ad-hoc *request*, parsed as *bound*."""

    def _plan_statement(self, statement: PreparedStatement) -> None:
        """Prepare-time expression work beyond the parse; none by default."""

    # Ad-hoc requests -------------------------------------------------------------

    def query(
        self,
        database: str,
        query: str,
        method: str = "approx",
    ) -> QueryResponse:
        """Convenience wrapper building the :class:`QueryRequest` inline."""
        return self.execute(QueryRequest(database, query, method))

    def classify(self, query_text: str) -> ClassifyResponse:
        """Classify a query: pure syntax, parse-cached, no database involved."""
        return build_classify_response(query_text, classify_query(self._parse(query_text)))

    def info(self, name: str) -> InfoResponse:
        """Describe one database."""
        entry = self.entry(name)
        return build_info_response(entry.name, entry.database)

    def batch(self, requests, max_workers: int | None = None) -> BatchResponse:
        """Deduplicated concurrent evaluation; see :mod:`repro.service.batch`.

        With the default worker count, batches share one long-lived thread
        pool owned by the front-end, so a bursty client does not pay pool
        startup/teardown per batch.  Raises :class:`ServiceClosedError` once
        the front-end has been closed.
        """
        return self._batch_evaluator(BatchEvaluator, max_workers).run(requests)

    def warm(self, requests) -> WarmupReport:
        """Replay recorded traffic through the caches (the ``--warm`` path).

        Each request is executed exactly as live traffic would be, so every
        cache on its path fills — in a cluster, on whichever workers the
        request routes to.  Errors are counted, not raised: a stale log line
        must not keep a server from booting, and a malformed entry (anything
        that is not a :class:`QueryRequest`) is a failure, not an abort.
        """
        total = warmed = already = failed = 0
        for request in requests:
            total += 1
            if not isinstance(request, QueryRequest):
                failed += 1
                continue
            try:
                response = self.execute(request)
            except ReproError:
                failed += 1
                continue
            if response.cached:
                already += 1
            else:
                warmed += 1
        return WarmupReport(total=total, warmed=warmed, already_cached=already, failed=failed)

    # Prepared statements --------------------------------------------------------

    def prepare(
        self,
        database: str,
        template: str,
        method: str = "approx",
        engine: str = "auto",
    ) -> PreparedStatement:
        """Parse and register a query template.

        The template may mention ``$name`` parameters (it need not: preparing
        a parameter-free query simply pins its parse).  Preparing the same
        template twice returns the same statement.  The returned statement's
        id drives :meth:`execute_prepared` / :meth:`execute_prepared_many`.
        *engine* accepts only ``"auto"``
        (:func:`~repro.service.protocol.check_method`).
        """
        entry = self.entry(database)
        query = self._parse(template)
        check_method(method, engine)
        statement, created = self._statements.intern(entry.name, query, method)
        if created:
            with self._registry_lock:
                self._prepared["templates"] += 1
        self._plan_statement(statement)
        return statement

    def statement(self, statement_id: str) -> PreparedStatement:
        """Look up a prepared statement (:class:`UnknownStatementError` if absent)."""
        return self._statements.get(statement_id)

    def deallocate(self, statement_id: str) -> None:
        """Forget one prepared statement."""
        self._statements.deallocate(statement_id)

    def execute_prepared(self, statement_id: str, params: Mapping[str, str] | None = None) -> QueryResponse:
        """Execute a prepared statement under one parameter binding.

        Answers are byte-identical to the ad-hoc request whose query text is
        the bound template; binding substitutes constants into the parsed
        template, so nothing is re-parsed.
        """
        statement = self._statements.get(statement_id)
        values = dict(params or {})
        bound, rendered = statement.bind(values)
        request = QueryRequest(statement.database, rendered, statement.method)
        with self._registry_lock:
            self._prepared["executions"] += 1
        return self._execute_bound(statement, request, bound, values)

    def execute_prepared_many(self, statement_id: str, bindings, max_workers: int | None = None) -> BatchResponse:
        """Execute one statement under many bindings (deduplicated, concurrent).

        The prepared counterpart of :meth:`batch`: equal bindings are
        evaluated once, the unique ones fan out over the shared thread pool,
        and ``responses[i]`` always answers ``bindings[i]`` (failed bindings
        carry an :class:`~repro.service.protocol.ErrorResponse` in their
        slot).
        """
        return self._batch_evaluator(PreparedBatchEvaluator, max_workers).run(statement_id, bindings)

    # Counters and lifecycle ------------------------------------------------------

    def record_batch(self, executed: int, deduplicated: int) -> None:
        """Called by the batch evaluators to fold their counters into stats()."""
        with self._registry_lock:
            self._batch["executed"] += executed
            self._batch["deduplicated"] += deduplicated

    def stats(self) -> StatsResponse:
        """The counters every front-end keeps; subclasses add their sections."""
        with self._registry_lock:
            batch = dict(self._batch)
            prepared = dict(self._prepared)
        prepared["statements"] = len(self._statements)
        return StatsResponse(
            databases=self.database_names(),
            answer_cache={},
            parse_cache=self._parses.stats().as_dict(),
            batch=batch,
            uptime_seconds=time.monotonic() - self._started,
            plan_cache=self._plans.stats().as_dict(),
            prepared=prepared,
        )

    def close(self) -> None:
        """Shut the shared thread pools down; the front-end is then terminal.

        Closing twice raises :class:`ServiceClosedError` — a silently
        idempotent close hid real lifecycle bugs in which a post-close
        ``batch()`` quietly spun up a fresh pool that nothing would ever shut
        down.  Single requests keep working, so an HTTP server can drain
        in-flight work.
        """
        with self._registry_lock:
            self._check_open()
            self._closed = True
            pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.shutdown(wait=False)

    @property
    def _executor(self) -> ThreadPoolExecutor | None:
        """The shared batch pool, if one currently exists (for tests/debugging)."""
        return self._pools.get("batch")

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(
                f"this {type(self).__name__} has been closed; create a new one instead of reusing it"
            )

    def _pool(self, name: str, max_workers: int) -> ThreadPoolExecutor:
        """The shared pool called *name*, created on first use.

        Creation is checked under the lock so a request racing ``close()``
        can never recreate a pool on a closed front-end.
        """
        with self._registry_lock:
            self._check_open()
            pool = self._pools.get(name)
            if pool is None:
                pool = ThreadPoolExecutor(max_workers=max_workers, thread_name_prefix=f"repro-{name}")
                self._pools[name] = pool
            return pool

    def _batch_evaluator(self, evaluator, max_workers: int | None):
        if max_workers is None:
            return evaluator(self, executor=self._pool("batch", DEFAULT_MAX_WORKERS))
        self._check_open()
        return evaluator(self, max_workers=max_workers)

    def _parse(self, query_text: str) -> Query:
        query, __ = self._parses.get_or_compute(query_text, lambda: parse_query(query_text))
        return query
