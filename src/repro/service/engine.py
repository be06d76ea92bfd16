"""The long-lived query service: named snapshots, precomputed storage, caches.

The one-shot CLI pays the full pipeline on every invocation: load the CSV
database, parse the query, derive ``Ph2(LB)``, evaluate.  A
:class:`QueryService` amortizes all of that across many queries and many
clients:

* **snapshot registry** — databases are registered under a name as
  *immutable* :class:`~repro.logical.database.CWDatabase` snapshots; their
  ``Ph2`` storage is precomputed at registration time and shared,
  lock-free, by every concurrent query;
* **content fingerprints** — each snapshot's
  :meth:`~repro.logical.database.CWDatabase.fingerprint` joins the cache
  key, so re-registering a name with different content can never serve
  stale answers;
* **result caching** — parsed queries and full responses live in
  thread-safe LRU caches (:mod:`repro.service.cache`); responses are keyed
  on ``(fingerprint, query_text, method, profile)``, and a prepared
  execution uses its bound text, so it shares the slot of the equivalent
  ad-hoc request.  A cached response keeps its answer rows
  packed (:class:`~repro.service.protocol.PackedRows`, one flat tuple of
  cells per route: about 21 bytes a row on the E21 database, against 69 as
  row tuples), and a hit rebuilds rows equal to those of the miss;
* **one plan per query shape** — an ad-hoc query's constants are lifted
  into parameters after parse (:func:`~repro.logic.template.lift_constants`),
  and the compiled + optimized plan of that *template* is cached per
  ``(snapshot fingerprint, canonical template text)``.  Requests
  that differ only in constants share one entry, exactly as the executions
  of one prepared template do: each substitutes its values into the cached
  plan (:func:`~repro.physical.plan.substitute_plan_parameters`), so a warm
  server answering an uncached request skips rewrite-compile-optimize and
  goes straight to plan execution.  Plans are costed once, on static
  statistics; nothing re-optimizes them per binding.

The session surface — prepared statements, batches, warm-up, the terminal
``close()`` — is :class:`~repro.service.frontend.Frontend`'s, shared with
the cluster router; this module only decides how a request is evaluated.
The service is deliberately transport-agnostic: :mod:`repro.service.server`
exposes it over HTTP, but it is equally usable in-process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from repro.approx.evaluator import ApproximateEvaluator
from repro.errors import ServiceError, UnknownDatabaseError
from repro.logic.queries import Query
from repro.logic.template import lift_constants, lifted_text
from repro.logical.database import CWDatabase
from repro.logical.exact import CertainAnswerEvaluator
from repro.logical.mappings import DEFAULT_MAX_MAPPINGS
from repro.logical.ph import ph2
from repro.observability import events
from repro.observability.accounting import current_account
from repro.observability.explain import PlanProfiler, profile_payload
from repro.observability.tracing import span
from repro.physical.algebra import node_label
from repro.resilience.deadlines import check_deadline
from repro.physical.database import PhysicalDatabase
from repro.physical.plan import substitute_plan_parameters
from repro.physical.statistics import preload_statistics
from repro.service.cache import LRUCache
from repro.service.frontend import DEFAULT_PARSE_CACHE_CAPACITY, DEFAULT_PLAN_CACHE_CAPACITY, Frontend
from repro.service.prepared import PreparedStatement
from repro.service.protocol import (
    MetricsResponse,
    PackedRows,
    QueryRequest,
    QueryResponse,
    StatsResponse,
    canonical_rows,
)

__all__ = ["RegisteredDatabase", "QueryService"]

DEFAULT_ANSWER_CACHE_CAPACITY = 4096

#: Plan-cache value meaning "this shape has no plan" (its rewrite is second
#: order): each execution evaluates its bound query.
_AST_ROUTE = "ast-route"

#: Every served request's approximation: the capability rule.
_EVALUATOR = ApproximateEvaluator(engine="auto")


@dataclass(frozen=True)
class RegisteredDatabase:
    """One named snapshot with its ``Ph2`` physical representation.

    The storage is derived once on first use and then shared;
    :meth:`QueryService.register` touches it eagerly by default so a
    long-lived server pays the derivation at registration time, while
    one-shot callers that never evaluate against it (e.g. the exact-only
    CLI path) never build it.  It is immutable once built.
    """

    name: str
    database: CWDatabase
    fingerprint: str

    @property
    def storage(self) -> PhysicalDatabase:
        """``Ph2(LB)`` (derived on first use)."""
        cached = self.__dict__.get("_storage")
        if cached is None:
            # Benign race: concurrent first requests may both derive it; the
            # results are equal immutable objects and last-writer-wins.
            cached = ph2(self.database)
            object.__setattr__(self, "_storage", cached)
        return cached


def _pack(response: QueryResponse) -> QueryResponse:
    """The answer-cache form of *response*: each route's rows a :class:`PackedRows`.

    Only the cache holds such a response; :meth:`QueryService._answer`
    rebuilds the row tuples before a hit leaves it.
    """
    return replace(response, answers={label: PackedRows.pack(rows) for label, rows in response.answers.items()})


class QueryService(Frontend):
    """Registry of database snapshots plus cached, thread-safe evaluation.

    Parameters
    ----------
    answer_cache_capacity:
        LRU capacity for :class:`QueryResponse` objects (rows packed); 0 disables
        response caching (the benchmark's "cold" configuration).
    parse_cache_capacity:
        LRU capacity for parsed :class:`~repro.logic.queries.Query` objects.
    plan_cache_capacity:
        LRU capacity for compiled + optimized algebra plans; 0 disables plan
        caching (every uncached request recompiles).
    max_mappings:
        Safety cap forwarded to exact certain-answer evaluation.
    """

    def __init__(
        self,
        answer_cache_capacity: int = DEFAULT_ANSWER_CACHE_CAPACITY,
        parse_cache_capacity: int = DEFAULT_PARSE_CACHE_CAPACITY,
        plan_cache_capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
        max_mappings: int = DEFAULT_MAX_MAPPINGS,
    ) -> None:
        super().__init__(parse_cache_capacity, plan_cache_capacity)
        self._registry: dict[str, RegisteredDatabase] = {}
        self._answers = LRUCache(answer_cache_capacity)
        self._exact = CertainAnswerEvaluator(max_mappings=max_mappings)
        self._prepared.update(generic_plans=0)

    # Registry ------------------------------------------------------------------

    def register(
        self,
        name: str,
        database: CWDatabase,
        replace_existing: bool = False,
        precompute: bool = True,
    ) -> RegisteredDatabase:
        """Register an immutable snapshot under *name* and precompute ``Ph2``.

        Registration is the only expensive mutation the service performs;
        afterwards every query against the snapshot reads shared immutable
        state.  ``precompute=False`` defers the default ``Ph2`` derivation
        to first use — for one-shot callers that may never evaluate against
        it.  Re-registering a name requires ``replace_existing=True`` —
        cached responses for the old content stay keyed on the old
        fingerprint and are dropped from the cache.
        """
        if not name:
            raise ServiceError("a database snapshot needs a nonempty name")
        # Reject duplicate names before the (expensive) Ph2 derivation; the
        # registry is re-checked at insertion in case of a racing register.
        with self._registry_lock:
            if name in self._registry and not replace_existing:
                raise ServiceError(f"database {name!r} is already registered (pass replace_existing=True)")
        entry = RegisteredDatabase(
            name=name,
            database=database,
            fingerprint=database.fingerprint(),
        )
        if precompute:
            entry.storage  # derives and caches Ph2 now
        with self._registry_lock:
            previous = self._registry.get(name)
            if previous is not None and not replace_existing:
                raise ServiceError(f"database {name!r} is already registered (pass replace_existing=True)")
            self._registry[name] = entry
        if previous is not None and previous.fingerprint != entry.fingerprint:
            self._answers.invalidate(lambda key: key[0] == previous.fingerprint)
            self._plans.invalidate(lambda key: key[0] == previous.fingerprint)
        return entry

    def register_from_store(
        self,
        store,
        snapshot_name: str,
        as_name: str | None = None,
        replace_existing: bool = False,
    ) -> RegisteredDatabase:
        """Register a snapshot loaded from a :class:`~repro.cluster.store.SnapshotStore`.

        This is the warm-boot path of cluster workers: the snapshot's
        persisted optimizer statistics are seeded onto the precomputed
        ``Ph2`` storage, so the very first plans run with real cardinalities
        instead of triggering cold rescans.
        """
        snapshot = store.load(snapshot_name)
        entry = self.register(
            as_name or snapshot_name,
            snapshot.database,
            replace_existing=replace_existing,
            precompute=True,
        )
        if snapshot.statistics is not None:
            self.preload_statistics(entry.name, snapshot.statistics)
        return entry

    def preload_statistics(self, name: str, payload: Mapping[str, object]) -> int:
        """Seed a snapshot's optimizer statistics from a persisted payload.

        Plans cached for that snapshot (same fingerprint) were optimized
        without the new information, so exactly those entries are dropped;
        the next arrival of each query re-optimizes against the updated
        statistics.  Returns the number of invalidated plan-cache entries.
        """
        entry = self.entry(name)
        preload_statistics(entry.storage, payload)
        dropped = self._plans.invalidate(lambda key: key[0] == entry.fingerprint)
        if dropped:
            events.emit(
                "plan.invalidated",
                database=entry.name,
                dropped=dropped,
                reason="statistics_preload",
            )
        return dropped

    def unregister(self, name: str) -> None:
        """Drop a snapshot and every cached response computed from it."""
        with self._registry_lock:
            entry = self._registry.pop(name, None)
        if entry is None:
            raise UnknownDatabaseError(f"unknown database {name!r}")
        self._answers.invalidate(lambda key: key[0] == entry.fingerprint)
        self._plans.invalidate(lambda key: key[0] == entry.fingerprint)
        self._statements.drop_database(name)

    def database_names(self) -> tuple[str, ...]:
        with self._registry_lock:
            return tuple(sorted(self._registry))

    def entry(self, name: str) -> RegisteredDatabase:
        with self._registry_lock:
            entry = self._registry.get(name)
            known = None if entry is not None else (", ".join(sorted(self._registry)) or "none registered")
        if entry is None:
            raise UnknownDatabaseError(f"unknown database {name!r} (known: {known})")
        return entry

    # Query paths ---------------------------------------------------------------

    def execute(self, request: QueryRequest) -> QueryResponse:
        """Evaluate one request, serving repeats from the response cache.

        The cache key pairs the snapshot's content fingerprint with every
        request field that can change the answer, so distinct methods never
        share an entry.  An uncached approximate request runs
        on the plan of its shape: the constants are lifted out of the parsed
        query and substituted back into the shape's cached plan.
        """
        entry = self.entry(request.database)

        def evaluate() -> QueryResponse:
            query = self._parse(request.query)

            def approximate(profiler: PlanProfiler | None) -> frozenset[tuple[str, ...]]:
                shape, values = lifted_text(query)
                return self._approximate(entry, shape, lambda: lift_constants(query)[0], values, query, profiler)

            return self._evaluate(entry, request, query, approximate)

        return self._answer(entry, request, evaluate, "query", "query.evaluate")

    def _execute_bound(
        self,
        statement: PreparedStatement,
        request: QueryRequest,
        bound: Query,
        values: Mapping[str, str],
    ) -> QueryResponse:
        """A prepared execution: the ad-hoc *request*, minus the parse and the lift.

        Answers are byte-identical to that request — the two share
        answer-cache entries — and so is the route: the statement's template
        is the shape, and its values are the binding.
        """
        entry = self.entry(statement.database)

        def approximate(profiler: PlanProfiler | None) -> frozenset[tuple[str, ...]]:
            return self._approximate(
                entry, statement.template, lambda: statement.query, values, bound, profiler, prepared=True
            )

        def evaluate() -> QueryResponse:
            return self._evaluate(entry, request, bound, approximate)

        return self._answer(entry, request, evaluate, "execute", f"template.{statement.statement_id}")

    def _answer(self, entry: RegisteredDatabase, request: QueryRequest, evaluate, kind: str, histogram: str) -> QueryResponse:
        """Serve *request* from the answer cache, or *evaluate* it; account either way.

        ``profile`` joins the key (a profiled response carries an extra
        payload); prepared executions never profile, so they share slots with
        the equivalent profile-less ad-hoc request.
        """
        key = (entry.fingerprint, request.query, request.method, request.profile)
        account = current_account()
        cached = self._answers.get(key)
        if cached is not None:
            # Entries are shared between content-identical snapshots, so the
            # stored name may be another alias — relabel for this request.
            response = replace(
                cached,
                answers={label: packed.rows() for label, packed in cached.answers.items()},
                cached=True,
                database=entry.name,
            )
            self.metrics_registry.increment(f"{kind}.cache_hits")
            if account is not None:
                account.note_cache_hit()
        else:
            response = evaluate()
            self._answers.put(key, _pack(response))
            self.metrics_registry.observe(histogram, response.elapsed_seconds)
            if account is not None:
                account.add_operator_seconds(response.elapsed_seconds)
        if account is not None:
            account.add_emitted(sum(len(rows) for rows in response.answers.values()))
        self.metrics_registry.increment(f"{kind}.requests")
        return response

    def stats(self) -> StatsResponse:
        return replace(super().stats(), answer_cache=self._answers.stats().as_dict())

    def metrics(self) -> MetricsResponse:
        """A telemetry snapshot for ``GET /metrics``.

        Request latencies live in the registry; cache occupancy/hit counts
        are read fresh from the caches at snapshot time, so they are true
        totals (summable across a cluster) rather than sampled deltas.
        """
        snapshot = self.metrics_registry.snapshot()
        counters = dict(snapshot["counters"])
        gauges = dict(snapshot["gauges"])
        for prefix, cache in (
            ("answer_cache", self._answers),
            ("parse_cache", self._parses),
            ("plan_cache", self._plans),
        ):
            stats = cache.stats().as_dict()
            for field_name in ("hits", "misses", "evictions"):
                value = stats.get(field_name)
                if isinstance(value, int):
                    counters[f"{prefix}.{field_name}"] = value
            size = stats.get("size")
            if isinstance(size, int):
                gauges[f"{prefix}.size"] = float(size)
        return MetricsResponse(
            counters=counters,
            gauges=gauges,
            histograms=snapshot["histograms"],
            uptime_seconds=snapshot["uptime_seconds"],
        )

    # Internals -----------------------------------------------------------------

    def _approximate(
        self,
        entry: RegisteredDatabase,
        shape: str,
        template: Callable[[], Query],
        values: Mapping[str, str],
        bound: Query,
        profiler: PlanProfiler | None = None,
        prepared: bool = False,
    ) -> frozenset[tuple[str, ...]]:
        """The approximate route of every request: the plan of its shape.

        *shape* is the canonical text of the query ``template()`` builds (on
        a plan-cache miss only), and *bound* is that query under *values*.
        The plan cache holds one entry per ``(snapshot, shape)`` — the
        compiled + optimized plan with :class:`~repro.logic.terms.Parameter`
        placeholders still inside — and each execution substitutes its values
        into it, a pure tree rebuild.  A shape whose rewrite is second order
        has no plan and evaluates *bound* directly.  The plan depends on the
        snapshot content, never on the method, so content-identical snapshots
        share plans across aliases.
        """
        storage = entry.storage

        def compute_plan():
            plan = _EVALUATOR.plan_on_storage(storage, template())
            return _AST_ROUTE if plan is None else plan

        plan, __ = self._plans.get_or_compute((entry.fingerprint, shape), compute_plan)
        if plan is _AST_ROUTE:
            return _EVALUATOR.answers_on_storage(storage, bound)
        # Resolving through constant_value makes an unknown constant fail
        # exactly as compiling it into the plan did.
        resolved = {name: storage.constant_value(value) for name, value in values.items()}
        if prepared:
            with self._registry_lock:
                self._prepared["generic_plans"] += 1
        return _EVALUATOR.answers_on_storage(
            storage, bound, plan=substitute_plan_parameters(plan, resolved), profiler=profiler
        )

    @staticmethod
    def _soundness(approx, exact) -> tuple[bool | None, int | None]:
        if approx is None or exact is None:
            return None, None
        if not approx <= exact:
            raise ServiceError(
                "soundness violated: the approximation returned a non-certain answer — please report this as a bug"
            )
        return approx == exact, len(exact - approx)

    def _evaluate(
        self,
        entry: RegisteredDatabase,
        request: QueryRequest,
        query: Query,
        approximate: Callable[[PlanProfiler | None], frozenset[tuple[str, ...]]],
    ) -> QueryResponse:
        """Evaluate one uncached request; *approximate* runs its approximate route."""
        started = time.perf_counter()
        check_deadline("query evaluation")
        answers: dict[str, tuple[tuple[str, ...], ...]] = {}
        approx: frozenset[tuple[str, ...]] | None = None
        exact: frozenset[tuple[str, ...]] | None = None
        profiler = PlanProfiler() if request.profile else None
        if request.method in ("approx", "both"):
            with span("evaluate approx"):
                approx = approximate(profiler)
            answers["approximate"] = canonical_rows(approx)
        if request.method in ("exact", "both"):
            # The exact route is exponential by design: refuse to start it
            # for a request whose budget is already spent.
            check_deadline("exact evaluation")
            with span("evaluate exact"):
                exact = self._exact.certain_answers(entry.database, query)
            answers["exact"] = canonical_rows(exact)
        complete, missed = self._soundness(approx, exact)
        return QueryResponse(
            database=entry.name,
            fingerprint=entry.fingerprint,
            query=request.query,
            method=request.method,
            arity=query.arity,
            answers=answers,
            complete=complete,
            missed=missed,
            cached=False,
            elapsed_seconds=time.perf_counter() - started,
            profile=profile_payload(request.method, profiler, node_label) if request.profile else None,
        )
