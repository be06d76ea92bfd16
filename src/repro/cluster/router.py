"""The cluster front-end: routing, scatter-gather merging, failover.

The router is the only component that understands the partition layout.  It
decomposes each incoming request with
:func:`repro.cluster.partition.decompose_query` and executes the resulting
plan against *backends* — one per worker — merging shard answers with the
two sound operators:

* **union** for scattered certain-answer sets (the scattered shapes
  partition their stored answers across shards);
* **conjunction** for Boolean conjunctions (certainty always distributes
  over ``&``).

Queries the partitioner cannot prove decomposable go to the full-copy
replica, so every response is byte-identical to single-process evaluation.

A backend is anything with ``execute``/``stats``/``ping``:
:class:`RemoteBackend` speaks the JSON protocol to a worker process over
HTTP, while :class:`LocalBackend` wraps an in-process
:class:`~repro.service.engine.QueryService` — the property tests use local
backends to hammer the routing/merging logic without process overhead, so
the exact code path that runs in production is the one that is
property-tested.

**Failover.**  Shard placement is replicated: shard ``s`` lives on workers
``s, s+1, ..., s+K-1 (mod W)`` for replication factor ``K``.  A transport
failure (:class:`~repro.errors.ServiceUnavailableError`) marks the worker
dead and the call retries on the next replica; a later :meth:`health_check`
can revive it.  Replicas hold byte-identical immutable snapshots, so
failover can never change an answer — only availability.

The router is a :class:`~repro.service.frontend.Frontend`, like the
single-process service: statements, batches, warm-up, ``stats()`` and the
terminal ``close()`` are the shared front-end's, and the router supplies
only how a request is evaluated — route, fan out, merge — so the HTTP
server serves a cluster unchanged.

**Prepared statements.**  The proof-carrying decomposition depends only on
a query's shape (parameters type as constants), so the router decomposes a
template **once** at prepare time and, per execution, merely substitutes
the binding into the per-shard request texts — the expensive expression-side
work is amortized across the whole parameter sweep.  Workers advertise
their protocol versions in health checks, and the router aggregates the
session counters (templates, executions, template-plan executions)
cluster-wide in ``stats().prepared``.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_EXCEPTION, wait
from dataclasses import replace
from typing import Mapping, Sequence

from repro.cluster.partition import (
    BooleanConjunction,
    FullCopy,
    PartitionLayout,
    RoutePlan,
    ScatterUnion,
    SingleShard,
    decompose_query,
)
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    UnknownDatabaseError,
)
from repro.logic.printer import query_to_text
from repro.logic.queries import Query
from repro.logic.template import bind_query, query_parameters
from repro.observability import events, tracing
from repro.observability.accounting import current_account
from repro.observability.metrics import merge_metric_snapshots
from repro.resilience import deadlines
from repro.resilience.retry import BREAKER_STATE_GAUGE, BackoffPolicy, CircuitBreaker
from repro.service.cache import LRUCache
from repro.service.client import ServiceClient
from repro.service.engine import RegisteredDatabase
from repro.service.frontend import DEFAULT_PLAN_CACHE_CAPACITY, Frontend
from repro.service.prepared import PreparedStatement
from repro.service.protocol import (
    SUPPORTED_PROTOCOL_VERSIONS,
    MetricsResponse,
    QueryRequest,
    QueryResponse,
    StatsResponse,
    canonical_rows,
)

__all__ = [
    "shard_hosts",
    "full_copy_hosts",
    "LocalBackend",
    "RemoteBackend",
    "ClusterRouter",
]


class _RoundFailed(Exception):
    """Internal control flow: one full pass over a replica set failed.

    Carries the pass's last transport error so the retry loop's final
    ``ClusterError`` can cite it.  Never escapes the router.
    """

    def __init__(self, last_error: ServiceError | None) -> None:
        super().__init__(str(last_error) if last_error else "no candidate attempted")
        self.last_error = last_error


def shard_hosts(shard: int, n_workers: int, replicas: int) -> tuple[int, ...]:
    """Workers hosting *shard*: the primary plus the next ``K - 1`` workers.

    Shared by the router (who to ask) and the deployer (what to load where)
    so placement can never drift between them.
    """
    count = max(1, min(replicas, n_workers))
    return tuple((shard + offset) % n_workers for offset in range(count))


def full_copy_hosts(n_workers: int, replicas: int) -> tuple[int, ...]:
    """Workers hosting the designated full copy (for non-decomposable queries)."""
    count = max(1, min(replicas, n_workers))
    return tuple(range(count))


class LocalBackend:
    """An in-process backend: routing/merging without sockets or processes."""

    def __init__(self, service, description: str = "local") -> None:
        self.service = service
        self.description = description

    def execute(self, request: QueryRequest) -> QueryResponse:
        return self.service.execute(request)

    def stats(self) -> StatsResponse:
        return self.service.stats()

    def metrics(self) -> MetricsResponse:
        return self.service.metrics()

    def ping(self) -> bool:
        return True

    def protocol_versions(self) -> tuple[int, ...]:
        """In-process backends always speak everything this library speaks."""
        return SUPPORTED_PROTOCOL_VERSIONS


class RemoteBackend:
    """A backend speaking the JSON protocol to one worker process."""

    def __init__(self, base_url: str, handle=None, timeout: float | None = None) -> None:
        self.client = ServiceClient(base_url, **({"timeout": timeout} if timeout else {}))
        self.handle = handle
        self.description = base_url
        self._protocol_versions: tuple[int, ...] = ()

    def execute(self, request: QueryRequest) -> QueryResponse:
        return self.client.execute(request)

    def stats(self) -> StatsResponse:
        return self.client.stats()

    def metrics(self) -> MetricsResponse:
        return self.client.metrics()

    def ping(self) -> bool:
        try:
            health = self.client.health()
        except ServiceError:
            # Unreachable, or reachable but not answering the protocol (a
            # reused port, a wedged worker): either way, not healthy.
            return False
        # Workers advertise their protocol versions on every health check,
        # so a mixed-version cluster is visible in the router's stats.
        self._protocol_versions = health.protocol_versions
        return True

    def protocol_versions(self) -> tuple[int, ...]:
        """What the worker advertised on its last successful health check."""
        return self._protocol_versions

    def close(self) -> None:
        """Close the connections every fan-out thread holds to the worker."""
        self.client.close_all()


class _WorkerState:
    """Router-side view of one backend: liveness belief plus error counters."""

    def __init__(self, index: int, backend, breaker: CircuitBreaker | None = None) -> None:
        self.index = index
        self.backend = backend
        self.alive = True
        self.transport_errors = 0
        #: Circuit breaker guarding this backend (``None`` when breakers are
        #: disabled): consecutive transport failures open it, and an open breaker
        #: is skipped with a fast local check instead of paying a transport
        #: timeout per request while the worker is down.
        self.breaker = breaker


class ClusterRouter(Frontend):
    """Route requests across shard workers; merge answers soundly.

    Parameters
    ----------
    layouts:
        One :class:`PartitionLayout` per public database name.  All layouts
        must share one shard count, equal to the number of backends (one
        primary shard per worker).
    backends:
        One backend per worker, indexed like the shards.
    replicas:
        Replication factor used at deploy time; determines which workers are
        consulted for each shard and for the full copy.
    retry_policy:
        Backoff schedule for re-walking the replica set after a full pass
        fails on transport errors.  Defaults to a small capped-exponential
        policy.
    breaker_threshold / breaker_reset_seconds:
        Per-backend circuit breakers: that many *consecutive* transport
        failures open a worker's breaker, and an open worker is skipped
        (fast local check) until the reset interval admits one half-open
        probe.  ``breaker_threshold=None`` disables breakers.
    degraded:
        ``"stale_cache"`` opts into degraded-mode serving: when no live
        replica can answer (the whole retry schedule failed), a previously
        served response for the *same request* is returned flagged
        ``degraded=True`` instead of raising ``ClusterError``.  Snapshots
        are immutable, so the stale answer is byte-identical to what a live
        worker would say — the flag is the honest "the cluster, not a
        worker, answered this" signal.  ``None`` (default) fails loudly.
    """

    def __init__(
        self,
        layouts: Mapping[str, PartitionLayout],
        backends: Sequence[object],
        replicas: int = 1,
        plan_cache_capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
        fanout_workers: int | None = None,
        retry_policy: BackoffPolicy | None = None,
        breaker_threshold: int | None = 5,
        breaker_reset_seconds: float = 1.0,
        degraded: str | None = None,
        stale_cache_capacity: int = 512,
    ) -> None:
        if not layouts:
            raise ClusterError("a cluster router needs at least one partitioned database")
        if not backends:
            raise ClusterError("a cluster router needs at least one worker backend")
        n_workers = len(backends)
        for name, layout in layouts.items():
            if layout.n_shards != n_workers:
                raise ClusterError(
                    f"layout {name!r} has {layout.n_shards} shards but the router has "
                    f"{n_workers} workers; the cluster runs one primary shard per worker"
                )
        if degraded not in (None, "stale_cache"):
            raise ClusterError(f"unknown degraded mode {degraded!r}; expected None or 'stale_cache'")
        super().__init__(plan_cache_capacity=plan_cache_capacity)
        self._retry = retry_policy or BackoffPolicy()
        self._layouts = dict(layouts)
        self._workers = [
            _WorkerState(
                index,
                backend,
                CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    reset_after_seconds=breaker_reset_seconds,
                )
                if breaker_threshold is not None
                else None,
            )
            for index, backend in enumerate(backends)
        ]
        self._degraded_mode = degraded
        self._stale = LRUCache(stale_cache_capacity) if self._degraded_mode else None
        self._replicas = max(1, replicas)
        self._routed: dict[str, int] = {"single_shard": 0, "scatter": 0, "conjunction": 0, "full_copy": 0}
        self._failovers = 0
        # Fan-out tasks are leaves (one HTTP call each, never re-submitting),
        # so a dedicated pool cannot deadlock against the batch pool.
        self._fanout_workers = fanout_workers or max(8, 2 * n_workers)

    # Databases and evaluation -----------------------------------------------------

    def database_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._layouts))

    def layout(self, name: str) -> PartitionLayout:
        layout = self._layouts.get(name)
        if layout is None:
            known = ", ".join(self.database_names()) or "none registered"
            raise UnknownDatabaseError(f"unknown database {name!r} (known: {known})")
        return layout

    def entry(self, name: str) -> RegisteredDatabase:
        """A :class:`RegisteredDatabase` view of the full database (``info``, the CLI)."""
        layout = self.layout(name)
        return RegisteredDatabase(name=name, database=layout.full, fingerprint=layout.fingerprint)

    def execute(self, request: QueryRequest) -> QueryResponse:
        """Evaluate one request through the cluster.

        Answers are byte-identical to single-process evaluation of the same
        request on the unpartitioned database — that is the contract every
        routing rule was chosen to preserve.
        """
        layout = self.layout(request.database)
        query = self._parse(request.query)
        return self._route(request, self._route_plan(layout, request.query, query), query)

    def _plan_statement(self, statement: PreparedStatement) -> None:
        """Decompose a template cluster-side **once**, at prepare time.

        The proof-carrying route plan (:func:`~repro.cluster.partition.decompose_query`)
        depends only on the query's *shape* — which predicates it mentions,
        whether it is a bare atom or a Boolean conjunction — and parameters
        type as constants, so the template's decomposition is valid for every
        binding.  It is computed here and cached under the template text;
        executions only substitute constants into the per-shard requests.
        """
        self._route_plan(self.layout(statement.database), statement.template, statement.query)

    def _execute_bound(self, statement, request, bound, values) -> QueryResponse:
        """Bind per shard on the template's cached plan, then route like ``execute``."""
        plan = self._route_plan(self.layout(statement.database), statement.template, statement.query)
        if isinstance(plan, BooleanConjunction) and values:
            # Conjunct sub-queries carry the template's parameters; bind each
            # part with exactly the parameters it mentions.  The *shape* of
            # the plan (which conjunct routes where) is binding-independent.
            bound_parts = []
            for sub_text, sub_plan in plan.parts:
                sub_query = self._parse(sub_text)
                sub_values = {name: values[name] for name in query_parameters(sub_query)}
                bound_parts.append((query_to_text(bind_query(sub_query, sub_values)), sub_plan))
            plan = BooleanConjunction(tuple(bound_parts))
        return self._route(request, plan, bound)

    def _route(self, request: QueryRequest, plan: RoutePlan, query: Query) -> QueryResponse:
        """Run *plan* for *request*, relabel the answer, and keep the stale copy.

        When no live replica can answer, a previously served response for
        the same request is returned instead (degraded mode, if enabled).
        """
        layout = self._layouts[request.database]
        started = time.perf_counter()
        counter = _plan_counter(plan)
        with self._registry_lock:
            self._routed[counter] += 1
        try:
            with tracing.span(f"route {counter}", database=request.database):
                response = self._run_plan(layout, plan, request, query)
        except ClusterError:
            stale = self._stale.get(request) if self._stale is not None else None
            if stale is None:
                raise
            # Degraded-mode serving: no live replica anywhere in the retry
            # schedule, but this exact request has been answered before.
            # Snapshots are immutable, so the stale answer is byte-identical
            # to what a live worker would say; the flag is the honest signal.
            self.metrics_registry.increment("router.degraded_served")
            events.emit(
                "router.degraded_serve",
                level="warning",
                database=request.database,
                query=request.query,
            )
            return replace(
                stale,
                degraded=True,
                cached=True,
                elapsed_seconds=time.perf_counter() - started,
            )
        if response.database != request.database or response.fingerprint != layout.fingerprint:
            response = replace(
                response,
                database=request.database,
                fingerprint=layout.fingerprint,
                query=request.query,
                elapsed_seconds=time.perf_counter() - started,
            )
        if self._stale is not None:
            self._stale.put(request, response)
        self.metrics_registry.observe(f"route.{counter}", time.perf_counter() - started)
        return response

    def stats(self) -> StatsResponse:
        """The front-end's counters plus a best-effort stats summary per live worker.

        Worker probes run concurrently on the fan-out pool, so one wedged
        worker delays the aggregate by a single probe timeout instead of
        one timeout *per* worker — monitoring stays usable exactly when a
        worker is misbehaving.
        """

        def probe(state: _WorkerState) -> dict[str, object]:
            try:
                remote = state.backend.stats()
            except (ReproError, OSError):
                return {"alive": False}
            # Field-by-field and shape-checked: a worker running newer code
            # may report stats fields this router does not know (ignored by
            # parse_wire) or reshape ones it does — monitoring must degrade
            # to "unknown" for those, never take the cluster's stats() down.
            summary: dict[str, object] = {
                "alive": state.alive,
                "transport_errors": state.transport_errors,
            }
            databases = getattr(remote, "databases", ())
            summary["databases"] = (
                [str(name) for name in databases] if isinstance(databases, (list, tuple)) else []
            )
            for section in ("answer_cache", "plan_cache", "prepared"):
                value = getattr(remote, section, None)
                summary[section] = dict(value) if isinstance(value, Mapping) else {}
            # getattr: backends are duck-typed; one without version
            # advertisement (a wrapper, an old deployment) reads as
            # unknown rather than breaking monitoring.
            versions = getattr(state.backend, "protocol_versions", tuple)()
            summary["protocol_versions"] = (
                [v for v in versions if isinstance(v, int)]
                if isinstance(versions, (list, tuple))
                else []
            )
            return summary

        summaries = self._probe_workers(probe)
        workers = {str(state.index): summary for state, summary in zip(self._workers, summaries)}
        # Aggregate the prepared-statement counters across live workers so an
        # operator sees cluster-wide activity without per-shard math; the
        # per-worker breakdown stays available under "workers".
        prepared_total: dict[str, int] = {}
        for summary in summaries:
            for counter, value in summary.get("prepared", {}).items():
                if isinstance(value, int):
                    prepared_total[counter] = prepared_total.get(counter, 0) + value
        own = super().stats()
        # The router's own session counters fold into the cluster-wide
        # totals: templates are prepared *here* (workers see only bound
        # ad-hoc requests), worker counters cover direct worker clients.
        for counter, value in own.prepared.items():
            prepared_total[counter] = prepared_total.get(counter, 0) + value
        with self._registry_lock:
            routed = dict(self._routed)
            failovers = self._failovers
        return replace(
            own,
            prepared=prepared_total,
            cluster={
                "workers": workers,
                "routing": routed,
                "failovers": failovers,
                "replicas": self._replicas,
                "shards": len(self._workers),
                "breakers": {
                    str(state.index): {"state": state.breaker.state, "trips": state.breaker.trips}
                    for state in self._workers
                    if state.breaker is not None
                },
                "degraded_mode": self._degraded_mode,
            },
        )

    def metrics(self) -> MetricsResponse:
        """The cluster-wide telemetry view: router + every reachable worker.

        Counters and gauges sum across the fleet; histograms merge their
        log buckets and the p50/p95/p99 are recomputed from the combined
        distribution.  Unreachable workers (and backends predating
        ``/metrics``) are skipped — aggregation is best-effort, like
        :meth:`stats`.
        """

        def probe(state: _WorkerState) -> dict | None:
            metrics = getattr(state.backend, "metrics", None)
            if not callable(metrics):
                return None
            try:
                remote = metrics()
            except (ReproError, OSError):
                return None
            return {
                "counters": getattr(remote, "counters", {}),
                "gauges": getattr(remote, "gauges", {}),
                "histograms": getattr(remote, "histograms", {}),
            }

        snapshots = self._probe_workers(probe)
        for state in self._workers:
            if state.breaker is not None:
                # Gauge encoding: 0 closed, 0.5 half-open, 1 open — a panel
                # summing these sees "how many workers are dark" directly.
                self.metrics_registry.set_gauge(
                    f"breaker.state.worker{state.index}",
                    BREAKER_STATE_GAUGE[state.breaker.state],
                )
        own = self.metrics_registry.snapshot()
        merged = merge_metric_snapshots([own] + [snap for snap in snapshots if snap])
        merged["counters"]["cluster.workers_reporting"] = sum(1 for snap in snapshots if snap)
        return MetricsResponse(
            counters=merged["counters"],
            gauges=merged["gauges"],
            histograms=merged["histograms"],
            uptime_seconds=time.monotonic() - self._started,
        )

    def health_check(self) -> Mapping[int, bool]:
        """Probe every worker; refresh liveness beliefs (dead workers can revive)."""
        result = {}
        for state in self._workers:
            state.alive = state.backend.ping()
            if state.alive and state.breaker is not None:
                # A successful probe is exactly the evidence a half-open
                # breaker waits for; close it so traffic returns immediately
                # instead of after the next in-band probe.
                if state.breaker.record_success():
                    events.emit("breaker.healed", worker=state.index, via="health_check")
            result[state.index] = state.alive
        return result

    # Plan execution -------------------------------------------------------------

    def _run_plan(
        self,
        layout: PartitionLayout,
        plan: RoutePlan,
        request: QueryRequest,
        query: Query,
    ) -> QueryResponse:
        if isinstance(plan, SingleShard):
            return self._on_workers(
                shard_hosts(plan.shard, len(self._workers), self._replicas),
                replace(request, database=layout.shard_name(plan.shard)),
                f"shard {plan.shard} of {layout.name!r}",
            )
        if isinstance(plan, ScatterUnion):
            return self._scatter(layout, request, query)
        if isinstance(plan, BooleanConjunction):
            return self._conjunction(layout, plan, request)
        if isinstance(plan, FullCopy):
            return self._on_workers(
                full_copy_hosts(len(self._workers), self._replicas),
                replace(request, database=layout.full_name),
                f"full copy of {layout.name!r}",
            )
        raise ClusterError(f"unknown route plan {type(plan).__name__}")  # pragma: no cover

    def _scatter(self, layout: PartitionLayout, request: QueryRequest, query: Query) -> QueryResponse:
        """Fan the request out to every shard; union-merge the answer sets."""
        n_workers = len(self._workers)

        # Worker spans stitch under the router's scatter span, every shard
        # hop inherits the request's remaining budget, and shard charges
        # land on the request's bill.
        @deadlines.carry_request_context
        def on_shard(shard: int) -> QueryResponse:
            with tracing.span(f"scatter shard {shard}"):
                return self._on_workers(
                    shard_hosts(shard, n_workers, self._replicas),
                    replace(request, database=layout.shard_name(shard)),
                    f"shard {shard} of {layout.name!r}",
                )

        pool = self._fanout()
        futures = [pool.submit(on_shard, shard) for shard in range(layout.n_shards)]
        # On the first failure, drop the shards that have not started and let
        # the running ones settle before the failure propagates: a failed
        # request must not leave a shard retrying (and emitting events) after
        # the router has answered.  A shard is only ever cancelled because
        # another one raised, so the list below raises before it completes.
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()  # a no-op on a shard that has started
        wait(futures)
        parts = [future.result() for future in futures if not future.cancelled()]
        merged = {
            label: frozenset().union(*(part.answer_set(label) for part in parts))
            for label in parts[0].answers
        }
        return self._merged_response(layout, request, query, merged, parts)

    def _conjunction(
        self, layout: PartitionLayout, plan: BooleanConjunction, request: QueryRequest
    ) -> QueryResponse:
        """Evaluate each conjunct on its own route; certainty AND-merges.

        Conjuncts run sequentially in the calling thread (they are few) while
        any scattered conjunct still fans out on the shared pool; that keeps
        every pool task a leaf and the pools deadlock-free.
        """
        parts = []
        for sub_text, sub_plan in plan.parts:
            sub_request = replace(request, query=sub_text)
            parts.append(self._run_plan(layout, sub_plan, sub_request, self._parse(sub_text)))
        merged = {}
        for label in parts[0].answers:
            certain = all(part.answer_set(label) for part in parts)
            merged[label] = frozenset({()}) if certain else frozenset()
        return self._merged_response(layout, request, self._parse(request.query), merged, parts)

    def _merged_response(
        self,
        layout: PartitionLayout,
        request: QueryRequest,
        query: Query,
        merged: Mapping[str, frozenset],
        parts: Sequence[QueryResponse],
    ) -> QueryResponse:
        complete = missed = None
        if "approximate" in merged and "exact" in merged:
            complete = merged["approximate"] == merged["exact"]
            missed = len(merged["exact"] - merged["approximate"])
        profile = None
        if request.profile:
            # Per-node rows/times are only meaningful per shard execution, so
            # the merged profile keeps each part whole instead of pretending
            # the shard trees sum into one plan.
            profile = {"shards": [part.profile for part in parts]}
        return QueryResponse(
            database=request.database,
            fingerprint=layout.fingerprint,
            query=request.query,
            method=request.method,
            arity=query.arity,
            answers={label: canonical_rows(rows) for label, rows in merged.items()},
            complete=complete,
            missed=missed,
            cached=all(part.cached for part in parts),
            elapsed_seconds=max((part.elapsed_seconds for part in parts), default=0.0),
            profile=profile,
        )

    # Worker selection -----------------------------------------------------------

    def _on_workers(self, candidates: Sequence[int], request: QueryRequest, what: str) -> QueryResponse:
        """Execute on the first live candidate, failing over on worker faults.

        Both transport failures (worker unreachable) and protocol failures
        (something answered, but not with our protocol — a wedged worker, a
        reused port, a truncated reply) mark the worker dead and move on to
        a replica.  Application errors (parse errors, capacity refusals...)
        are deterministic — a replica would answer identically — so they
        propagate to the caller untouched.

        A full failed pass over the replica set is retried under the backoff
        policy (bounded by the request's deadline), open circuit breakers are
        skipped with a local check instead of a transport timeout, and a
        worker's ``503 overloaded`` answer moves on
        to the next replica without marking anyone dead.  Every replay is
        safe: either the failure proves the request never reached a server
        (``sent_request=False``), or it is one of the idempotent reads this
        method exclusively carries — workers only ever see ad-hoc ``/query``
        POSTs (binding happens at the router) and their answer caches make
        replays answer-identical.  A future non-idempotent worker request
        must consult :func:`ServiceUnavailableError.sent_request` here
        before any ambiguous replay.
        """
        rng = None  # the jitter stream is only built once a retry happens
        deadline = deadlines.current_deadline()
        last_error: ServiceError | None = None
        for retry_round in range(max(1, self._retry.rounds)):
            if retry_round:
                rng = rng or self._retry.rng()
                delay = self._retry.delay_seconds(retry_round, rng)
                if deadline is not None:
                    # A dead budget propagates as the typed 504 rather than
                    # burning the rest of the schedule; a live one caps the
                    # sleep so the last retry still fits inside it.
                    deadline.check(f"retry backoff for {what}")
                    delay = min(delay, max(0.0, deadline.remaining_seconds()))
                time.sleep(delay)
                self.metrics_registry.increment("router.retries")
                account = current_account()
                if account is not None:
                    account.note_retry()
                events.emit(
                    "router.retry",
                    level="warning",
                    what=what,
                    retry_round=retry_round,
                    delay_ms=delay * 1000.0,
                    last_error=str(last_error) if last_error else None,
                )
            try:
                return self._attempt_workers(candidates, request, what, last_error)
            except _RoundFailed as failed:
                last_error = failed.last_error
        raise ClusterError(
            f"no live replica for {what} after {self._retry.rounds} rounds: "
            f"tried workers {sorted(candidates)}"
            + (f" (last error: {last_error})" if last_error else "")
        )

    def _attempt_workers(
        self,
        candidates: Sequence[int],
        request: QueryRequest,
        what: str,
        carried_error: ServiceError | None,
    ) -> QueryResponse:
        """One pass over the replica set; exhaustion raises :class:`_RoundFailed`.

        *carried_error* is the previous round's last error, cited if this
        round attempts no candidate at all.
        """
        ordered = sorted(candidates, key=lambda index: not self._workers[index].alive)
        last_error: ServiceError | None = carried_error
        for index in ordered:
            state = self._workers[index]
            breaker = state.breaker
            if breaker is not None and not breaker.allow():
                # Open breaker: skip without a transport attempt.  The cost
                # of a down worker drops from one timeout per request to one
                # local check, until a half-open probe proves it back.
                self.metrics_registry.increment("router.breaker_skips")
                continue
            try:
                response = state.backend.execute(request)
            except OverloadedError as error:
                # The worker answered — it is alive, just shedding load.  Not
                # a transport fault: no death mark, no breaker charge; the
                # next replica (or round) absorbs the work.
                if breaker is not None and breaker.record_success():
                    events.emit("breaker.healed", worker=index)
                last_error = error
                self.metrics_registry.increment("router.worker_sheds")
                continue
            except DeadlineExceededError:
                # The budget died inside the worker; replaying elsewhere
                # cannot beat the same deadline.  The client owns the budget.
                raise
            except (ServiceUnavailableError, ProtocolError) as error:
                state.alive = False
                state.transport_errors += 1
                last_error = error
                with self._registry_lock:
                    self._failovers += 1
                events.emit(
                    "router.failover",
                    level="warning",
                    worker=index,
                    what=what,
                    error=str(error),
                )
                if breaker is not None and breaker.record_failure():
                    self.metrics_registry.increment("router.breaker_trips")
                    events.emit("breaker.tripped", level="error", worker=index, what=what)
                continue
            state.alive = True
            if breaker is not None and breaker.record_success():
                events.emit("breaker.healed", worker=index)
            return response
        raise _RoundFailed(last_error)

    # Internals ------------------------------------------------------------------

    def _route_plan(self, layout: PartitionLayout, query_text: str, query: Query) -> RoutePlan:
        plan, __ = self._plans.get_or_compute(
            (layout.fingerprint, query_text), lambda: decompose_query(layout, query)
        )
        return plan

    def close(self) -> None:
        super().close()
        for state in self._workers:
            if isinstance(state.backend, RemoteBackend):
                state.backend.close()

    def _fanout(self):
        return self._pool("fanout", self._fanout_workers)

    def _probe_workers(self, probe) -> list:
        """``probe(state)`` for every worker, concurrently when there are several."""
        if len(self._workers) > 1 and not self._closed:
            return list(self._fanout().map(probe, self._workers))
        return [probe(state) for state in self._workers]


def _plan_counter(plan: RoutePlan) -> str:
    if isinstance(plan, SingleShard):
        return "single_shard"
    if isinstance(plan, ScatterUnion):
        return "scatter"
    if isinstance(plan, BooleanConjunction):
        return "conjunction"
    return "full_copy"
