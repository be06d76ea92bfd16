"""The long-lived query service: named snapshots, precomputed storage, caches.

The one-shot CLI pays the full pipeline on every invocation: load the CSV
database, parse the query, derive ``Ph2(LB)``, evaluate.  A
:class:`QueryService` amortizes all of that across many queries and many
clients:

* **snapshot registry** — databases are registered under a name as
  *immutable* :class:`~repro.logical.database.CWDatabase` snapshots; both
  ``Ph2`` variants (materialized and virtual ``NE``) are precomputed at
  registration time and shared, lock-free, by every concurrent query;
* **content fingerprints** — each snapshot's
  :meth:`~repro.logical.database.CWDatabase.fingerprint` joins the cache
  key, so re-registering a name with different content can never serve
  stale answers;
* **result caching** — parsed queries and full responses live in
  thread-safe LRU caches (:mod:`repro.service.cache`) keyed on
  ``(fingerprint, query_text, method, engine, virtual_ne)``;
* **plan caching** — compiled + optimized relational-algebra plans are kept
  per ``(snapshot fingerprint, query_text, engine, NE encoding)``, so a warm
  server answering an uncached request (e.g. after answer-cache eviction, or
  with response caching disabled) still skips parse-rewrite-compile-optimize
  and goes straight to plan execution;
* **adaptive re-optimization** — every plan execution records actual subplan
  cardinalities (:class:`~repro.physical.statistics.CardinalityRecorder`);
  observations that contradict the optimizer's model beyond a threshold are
  folded into the snapshot's statistics and the stale plan-cache entry is
  dropped, so the query is re-optimized — with the corrected cardinalities,
  and a possibly different engine under ``"auto"`` — on its next arrival.
  The loop converges: only *new* divergent observations invalidate, and each
  re-optimization can only add observations.

The service is deliberately transport-agnostic: :mod:`repro.service.server`
exposes it over HTTP and :mod:`repro.service.batch` fans request lists out
over a thread pool, but it is equally usable in-process.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Mapping

from repro.approx.evaluator import ApproximateEvaluator
from repro.complexity.classes import classify_query
from repro.errors import ReproError, ServiceError, UnknownDatabaseError
from repro.logic.parser import parse_query
from repro.logic.queries import Query
from repro.logical.database import CWDatabase
from repro.logical.exact import CertainAnswerEvaluator
from repro.logical.mappings import DEFAULT_MAX_MAPPINGS
from repro.logical.ph import ph2
from repro.observability import events
from repro.observability.accounting import current_account
from repro.observability.explain import PlanProfiler, profile_payload
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import span
from repro.physical.algebra import node_label
from repro.resilience.deadlines import check_deadline
from repro.physical.database import PhysicalDatabase
from repro.physical.optimizer import DEFAULT_FEEDBACK_THRESHOLD, apply_feedback, plan_cost
from repro.physical.plan import substitute_plan_parameters
from repro.physical.statistics import (
    CardinalityRecorder,
    bounded_insert,
    preload_statistics,
    statistics_for,
)
from repro.service.cache import LRUCache
from repro.service.lifecycle import ExecutorLifecycle
from repro.service.prepared import PreparedStatement, StatementRegistry
from repro.service.protocol import (
    ClassifyResponse,
    InfoResponse,
    MetricsResponse,
    QueryRequest,
    QueryResponse,
    StatsResponse,
    answers_to_wire,
    build_classify_response,
    build_info_response,
)

__all__ = ["RegisteredDatabase", "QueryService", "WarmupReport", "replay_warmup"]

DEFAULT_ANSWER_CACHE_CAPACITY = 4096
DEFAULT_PARSE_CACHE_CAPACITY = 512
DEFAULT_PLAN_CACHE_CAPACITY = 1024

#: Plan-cache value meaning "the auto dispatcher chose Tarskian enumeration".
#: Caching the *decision* (not just the absent plan) lets warm requests skip
#: the compile + optimize + cost-model work the dispatcher needed to decide.
_TARSKI_ROUTE = "tarski-route"

#: Plan-cache value meaning "this template has no generic plan" (second order,
#: an explicitly Tarskian statement): prepared executions bind at the AST
#: level and take the ad-hoc per-binding plan path.
_AST_ROUTE = "ast-route"


@dataclass(frozen=True)
class RegisteredDatabase:
    """One named snapshot with its ``Ph2`` physical representations.

    Each ``NE``-encoding variant is derived once on first use and then
    shared; :meth:`QueryService.register` touches the materialized variant
    eagerly by default so a long-lived server pays the derivation at
    registration time, while one-shot callers that never evaluate against a
    variant (e.g. the exact-only CLI path) never build it.  Both variants
    are immutable once built.
    """

    name: str
    database: CWDatabase
    fingerprint: str

    def storage(self, virtual_ne: bool) -> PhysicalDatabase:
        """``Ph2(LB)`` for the requested ``NE`` encoding (derived on first use)."""
        attribute = "_storage_virtual" if virtual_ne else "_storage_materialized"
        cached = self.__dict__.get(attribute)
        if cached is None:
            # Benign race: concurrent first requests may both derive it; the
            # results are equal immutable objects and last-writer-wins.
            cached = ph2(self.database, virtual_ne=virtual_ne)
            payload = self.__dict__.get("_statistics_payload")
            if payload is not None and virtual_ne:
                # The persisted relation statistics describe the materialized
                # storage (different NE encoding); observed cardinalities are
                # safe to share — a fingerprint either names an NE-touching
                # subplan (exists in exactly one variant, inert in the other)
                # or a subplan over relations both variants store identically
                # (same actual cardinality either way).  Seed just those, so
                # feedback learned on virtual-NE traffic survives a reboot.
                preload_statistics(cached, {"observed": payload.get("observed", {})})
            elif payload is not None:
                preload_statistics(cached, payload)
            object.__setattr__(self, attribute, cached)
        return cached

    @property
    def storage_materialized(self) -> PhysicalDatabase:
        return self.storage(False)

    @property
    def storage_virtual(self) -> PhysicalDatabase:
        return self.storage(True)


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


def replay_warmup(execute, requests) -> WarmupReport:
    """Replay recorded traffic through *execute*, tallying the outcomes.

    Shared by :meth:`QueryService.warm` and the cluster router's warm-up so
    the semantics (best-effort, errors counted not raised) cannot drift.
    Malformed entries — anything that is not a :class:`QueryRequest`, e.g. a
    hand-edited log line that parsed as a different message — count as
    failures instead of aborting the whole replay.
    """
    total = warmed = already = failed = 0
    for request in requests:
        total += 1
        if not isinstance(request, QueryRequest):
            failed += 1
            continue
        try:
            response = execute(request)
        except ReproError:
            failed += 1
            continue
        if response.cached:
            already += 1
        else:
            warmed += 1
    return WarmupReport(total=total, warmed=warmed, already_cached=already, failed=failed)


class QueryService:
    """Registry of database snapshots plus cached, thread-safe evaluation.

    Parameters
    ----------
    answer_cache_capacity:
        LRU capacity for full :class:`QueryResponse` objects; 0 disables
        response caching (the benchmark's "cold" configuration).
    parse_cache_capacity:
        LRU capacity for parsed :class:`~repro.logic.queries.Query` objects.
    plan_cache_capacity:
        LRU capacity for compiled + optimized algebra plans; 0 disables plan
        caching (every uncached request recompiles).
    max_mappings:
        Safety cap forwarded to exact certain-answer evaluation.
    feedback_threshold:
        How far (as a factor, either direction) an observed subplan
        cardinality must diverge from the optimizer's estimate before the
        statistics learn it and the cached plan is re-optimized.  ``None``
        or ``0`` disables the adaptive feedback loop entirely.
    """

    def __init__(
        self,
        answer_cache_capacity: int = DEFAULT_ANSWER_CACHE_CAPACITY,
        parse_cache_capacity: int = DEFAULT_PARSE_CACHE_CAPACITY,
        plan_cache_capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
        max_mappings: int = DEFAULT_MAX_MAPPINGS,
        feedback_threshold: float | None = DEFAULT_FEEDBACK_THRESHOLD,
    ) -> None:
        self._registry: dict[str, RegisteredDatabase] = {}
        self._registry_lock = threading.Lock()
        self._answers = LRUCache(answer_cache_capacity)
        self._parses = LRUCache(parse_cache_capacity)
        self._plans = LRUCache(plan_cache_capacity)
        self._exact = CertainAnswerEvaluator(max_mappings=max_mappings)
        self._started = time.monotonic()
        self._batch_executed = 0
        self._batch_deduplicated = 0
        self._feedback_threshold = feedback_threshold or None
        self._feedback = {"observations": 0, "invalidations": 0, "reoptimizations": 0}
        self._statements = StatementRegistry()
        self._prepared = {"templates": 0, "executions": 0, "generic_plans": 0, "custom_plans": 0}
        #: (template plan key, statistics generation) → cached generic cost;
        #: bounded like the feedback marker maps.
        self._generic_costs: dict[tuple, float] = {}
        #: plan keys dropped by feedback, awaiting re-optimization — mapped to
        #: the statistics generation a replacement plan must have seen.
        self._replanned: dict[tuple, int] = {}
        #: plan keys whose observations all matched the model — mapped to the
        #: statistics generation that was current then, so convergence expires
        #: (and observation resumes) whenever the statistics drift; until
        #: then their executions skip the recorder entirely.
        self._converged: dict[tuple, int] = {}
        #: both marker maps are bounded (a high-diversity query stream must
        #: not grow them forever); overflowing drops the oldest entries, whose
        #: only cost is one extra observation or invalidation round.
        self._marker_capacity = max(plan_cache_capacity, DEFAULT_PLAN_CACHE_CAPACITY)
        #: Request telemetry (counters + latency histograms), served at
        #: ``GET /metrics``; recording is a single lock acquire per request.
        self.metrics_registry = MetricsRegistry()
        self._lifecycle = ExecutorLifecycle(
            "QueryService", "create a new service instead of reusing it"
        )

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
            entry.storage(False)
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
        persisted optimizer statistics — including observed cardinalities
        learned by other workers' feedback loops — are seeded onto the
        precomputed ``Ph2`` storage, so the very first plans run with real
        cardinalities instead of triggering cold rescans.
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
            # Stash the payload for the lazily derived virtual-NE variant:
            # its observed cardinalities are seeded when (if) it is built.
            object.__setattr__(entry, "_statistics_payload", snapshot.statistics)
        return entry

    def preload_statistics(self, name: str, payload: Mapping[str, object], virtual_ne: bool = False) -> int:
        """Seed a snapshot's optimizer statistics from a persisted payload.

        Plans cached for that snapshot (same fingerprint *and* ``NE``
        encoding — statistics live per storage variant) were optimized
        without the new information, so exactly those entries are dropped;
        the next arrival of each query re-optimizes against the updated
        statistics.  Returns the number of invalidated plan-cache entries.
        """
        entry = self.entry(name)
        preload_statistics(entry.storage(virtual_ne), payload)

        def affected(key: tuple) -> bool:
            return key[0] == entry.fingerprint and key[3] == virtual_ne

        dropped = self._plans.invalidate(affected)
        with self._registry_lock:
            if dropped:
                self._feedback["invalidations"] += dropped
            # New statistics make re-observation worthwhile again, and any
            # pending feedback marker refers to plans that no longer exist.
            self._converged = {
                key: generation for key, generation in self._converged.items() if not affected(key)
            }
            for key in [key for key in self._replanned if affected(key)]:
                del self._replanned[key]
        if dropped:
            events.emit(
                "plan.invalidated",
                database=entry.name,
                dropped=dropped,
                reason="statistics_preload",
            )
        return dropped

    def export_feedback(self) -> dict[str, dict[str, int]]:
        """Observed cardinalities per snapshot fingerprint (for persistence).

        Only storage variants that were actually built and observed something
        appear.  The cluster worker merges this into the snapshot store on
        shutdown, which is how feedback learned under live traffic reaches
        the next boot — and, via the store, every other worker.
        """
        learned: dict[str, dict[str, int]] = {}
        with self._registry_lock:
            entries = list(self._registry.values())
        for entry in entries:
            for attribute in ("_storage_materialized", "_storage_virtual"):
                storage = entry.__dict__.get(attribute)
                if storage is None:
                    continue
                statistics = storage.__dict__.get("_statistics")
                if statistics is None or not statistics.has_observations():
                    continue
                # One flat map per snapshot holds both variants safely: a
                # fingerprint shared by both names a subplan over relations
                # the variants store identically (same cardinality), and an
                # NE-touching fingerprint exists in only one of them.
                learned.setdefault(entry.fingerprint, {}).update(statistics.observed)
        return learned

    def unregister(self, name: str) -> None:
        """Drop a snapshot and every cached response computed from it."""
        with self._registry_lock:
            entry = self._registry.pop(name, None)
        if entry is None:
            raise UnknownDatabaseError(f"unknown database {name!r}")
        self._answers.invalidate(lambda key: key[0] == entry.fingerprint)
        self._plans.invalidate(lambda key: key[0] == entry.fingerprint)
        self._statements.drop_database(name)
        with self._registry_lock:
            self._converged = {
                key: generation
                for key, generation in self._converged.items()
                if key[0] != entry.fingerprint
            }
            for key in [key for key in self._replanned if key[0] == entry.fingerprint]:
                del self._replanned[key]

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
        request field that can change the answer, so distinct methods,
        engines and ``NE`` encodings never share an entry.
        """
        entry = self.entry(request.database)
        # ``profile`` joins the key (a profiled response carries an extra
        # payload); profile-less ad-hoc and prepared requests keep sharing
        # slots because both spell the flag the same way (False).
        key = (
            entry.fingerprint,
            request.query,
            request.method,
            request.engine,
            request.virtual_ne,
            request.profile,
        )
        response, was_cached = self._answers.get_or_compute(key, lambda: self._evaluate(entry, request))
        account = current_account()
        if was_cached:
            # Entries are shared between content-identical snapshots, so the
            # stored name may be another alias — relabel for this request.
            response = replace(response, cached=True, database=entry.name)
            self.metrics_registry.increment("query.cache_hits")
            if account is not None:
                account.note_cache_hit()
        else:
            self.metrics_registry.observe(f"query.{request.engine}", response.elapsed_seconds)
            if account is not None:
                account.add_operator_seconds(response.elapsed_seconds)
        if account is not None:
            account.add_emitted(sum(len(rows) for rows in response.answers.values()))
        self.metrics_registry.increment("query.requests")
        return response

    def query(
        self,
        database: str,
        query: str,
        method: str = "approx",
        engine: str = "algebra",
        virtual_ne: bool = False,
    ) -> QueryResponse:
        """Convenience wrapper building the :class:`QueryRequest` inline."""
        return self.execute(QueryRequest(database, query, method, engine, virtual_ne))

    def classify(self, query_text: str) -> ClassifyResponse:
        """Classify a query (parse-cached; needs no registered database)."""
        return build_classify_response(query_text, classify_query(self._parse(query_text)))

    def info(self, name: str) -> InfoResponse:
        """Describe one registered snapshot."""
        entry = self.entry(name)
        return build_info_response(entry.name, entry.database)

    def batch(self, requests, max_workers: int | None = None):
        """Deduplicated concurrent evaluation; see :mod:`repro.service.batch`.

        With the default worker count, batches share one long-lived thread
        pool owned by the service, so a bursty client does not pay pool
        startup/teardown per batch.  Raises :class:`ServiceClosedError` once
        the service has been closed.
        """
        from repro.service.batch import BatchEvaluator

        if max_workers is None:
            return BatchEvaluator(self, executor=self._shared_executor()).run(requests)
        self._check_open()
        return BatchEvaluator(self, max_workers=max_workers).run(requests)

    # Prepared statements --------------------------------------------------------

    def prepare(
        self,
        database: str,
        template: str,
        method: str = "approx",
        engine: str = "algebra",
        virtual_ne: bool = False,
    ) -> PreparedStatement:
        """Parse and register a query template; plan work happens per template.

        The template may mention ``$name`` parameters (it need not: preparing
        a parameter-free query simply pins its parse).  Preparing the same
        template twice returns the same statement.  The returned statement's
        id drives :meth:`execute_prepared` / :meth:`execute_prepared_many`.
        """
        entry = self.entry(database)
        query = self._parse(template)
        statement, created = self._statements.intern(entry.name, query, method, engine, virtual_ne)
        if created:
            with self._registry_lock:
                self._prepared["templates"] += 1
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
        the bound template — the two share answer-cache entries — but the
        expression-side work is amortized: the template was parsed once at
        prepare time, and the compiled + optimized *template plan* is rebound
        by value substitution instead of recompiled (see
        :meth:`_approx_prepared` for the generic-vs-custom plan choice).
        """
        statement = self._statements.get(statement_id)
        values = dict(params or {})
        bound, rendered = statement.bind(values)
        entry = self.entry(statement.database)
        with self._registry_lock:
            self._prepared["executions"] += 1
        # The trailing False mirrors QueryRequest.profile's default, keeping
        # the key shape identical to execute() so prepared executions share
        # answer-cache slots with the equivalent (unprofiled) ad-hoc request.
        key = (entry.fingerprint, rendered, statement.method, statement.engine, statement.virtual_ne, False)
        response, was_cached = self._answers.get_or_compute(
            key, lambda: self._evaluate_prepared(entry, statement, bound, rendered, values)
        )
        account = current_account()
        if was_cached:
            response = replace(response, cached=True, database=entry.name)
            self.metrics_registry.increment("execute.cache_hits")
            if account is not None:
                account.note_cache_hit()
        else:
            self.metrics_registry.observe(f"template.{statement_id}", response.elapsed_seconds)
            if account is not None:
                account.add_operator_seconds(response.elapsed_seconds)
        if account is not None:
            account.add_emitted(sum(len(rows) for rows in response.answers.values()))
        self.metrics_registry.increment("execute.requests")
        return response

    def execute_prepared_many(self, statement_id, bindings, max_workers: int | None = None):
        """Execute one statement under many bindings (deduplicated, concurrent).

        The prepared counterpart of :meth:`batch`: equal bindings are
        evaluated once, the unique ones fan out over the shared thread pool,
        and ``responses[i]`` always answers ``bindings[i]`` (failed bindings
        carry an :class:`~repro.service.protocol.ErrorResponse` in their
        slot).  Returns a :class:`~repro.service.protocol.BatchResponse`.
        """
        from repro.service.batch import PreparedBatchEvaluator

        if max_workers is None:
            evaluator = PreparedBatchEvaluator(self, executor=self._shared_executor())
        else:
            self._check_open()
            evaluator = PreparedBatchEvaluator(self, max_workers=max_workers)
        return evaluator.run(statement_id, bindings)

    def warm(self, requests) -> WarmupReport:
        """Replay recorded traffic through the caches (the ``--warm`` path).

        Each request is executed exactly as live traffic would be, so the
        parse, plan and answer caches all fill; errors are counted, not
        raised — a stale log line must not keep a server from booting.
        """
        return replay_warmup(self.execute, requests)

    def stats(self) -> StatsResponse:
        with self._registry_lock:
            feedback = dict(self._feedback)
            prepared = dict(self._prepared)
        prepared["statements"] = len(self._statements)
        return StatsResponse(
            databases=self.database_names(),
            answer_cache=self._answers.stats().as_dict(),
            parse_cache=self._parses.stats().as_dict(),
            batch=dict(self._batch_counters()),
            uptime_seconds=time.monotonic() - self._started,
            plan_cache=self._plans.stats().as_dict(),
            feedback=feedback,
            prepared=prepared,
        )

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

    @property
    def _executor(self):
        """The shared batch pool, if one currently exists (for tests/debugging)."""
        return self._lifecycle.pool("batch")

    def _check_open(self) -> None:
        self._lifecycle.check_open()

    def _shared_executor(self):
        from repro.service.batch import DEFAULT_MAX_WORKERS

        return self._lifecycle.executor("batch", DEFAULT_MAX_WORKERS, "repro-batch")

    def close(self) -> None:
        """Shut down the shared batch thread pool; the service is then terminal.

        Closing twice raises :class:`ServiceClosedError` — the old silent
        idempotence hid real lifecycle bugs in which a post-close ``batch()``
        quietly spun up a fresh pool that nothing would ever shut down.
        """
        self._lifecycle.close()

    def record_batch(self, executed: int, deduplicated: int) -> None:
        """Called by the batch evaluator to fold its counters into stats()."""
        with self._registry_lock:
            self._batch_executed += executed
            self._batch_deduplicated += deduplicated

    def _batch_counters(self) -> Mapping[str, int]:
        with self._registry_lock:
            return {"executed": self._batch_executed, "deduplicated": self._batch_deduplicated}

    def _parse(self, query_text: str) -> Query:
        query, __ = self._parses.get_or_compute(query_text, lambda: parse_query(query_text))
        return query

    def _absorb_feedback(self, storage: PhysicalDatabase, recorder: CardinalityRecorder, plan_key: tuple) -> None:
        """Fold one execution's observations in; drop the plan if now stale.

        The *answer* that execution produced stays valid (every plan is
        exact), so the response cache is untouched — only the plan entry is
        invalidated so the next uncached arrival re-optimizes with the
        corrected statistics.  An execution that teaches nothing new marks
        the key *converged*: later executions skip the recorder entirely, so
        the steady-state hot path pays no feedback bookkeeping.
        """
        statistics = statistics_for(storage)
        outcome = apply_feedback(storage, recorder, self._feedback_threshold, statistics)
        if outcome.diverged:
            dropped = self._plans.invalidate(lambda key: key == plan_key)
            with self._registry_lock:
                self._feedback["observations"] += outcome.recorded
                self._converged.pop(plan_key, None)
                if dropped:
                    self._feedback["invalidations"] += dropped
                    bounded_insert(self._replanned, plan_key, statistics.generation, self._marker_capacity)
            if dropped:
                events.emit(
                    "plan.invalidated",
                    query=plan_key[1],
                    dropped=dropped,
                    reason="feedback_divergence",
                )
            return
        # Nothing fingerprintable, or every observation matches what the
        # statistics already know — either way there is nothing left to learn
        # from re-observing this exact plan.  A key with a pending
        # re-optimization is left alone: this execution ran the doomed plan
        # (a concurrent observer got there first), and the *replacement*
        # still deserves observation.
        with self._registry_lock:
            if plan_key not in self._replanned:
                bounded_insert(self._converged, plan_key, statistics.generation, self._marker_capacity)

    def _plan_with_markers(self, storage: PhysicalDatabase, plan_key: tuple, compute_plan):
        """Fetch a cached plan, honouring the feedback loop's staleness markers.

        ``compute_plan`` returns ``(plan, statistics generation)``; the
        generation is captured *before* optimizing, so a plan tagged >= N
        provably saw every observation up to N.
        """
        plan, generation = self._plans.get_or_compute(plan_key, compute_plan)[0]
        with self._registry_lock:
            required = self._replanned.get(plan_key)
            converged_at = self._converged.get(plan_key)
        if required is not None:
            if generation < required:
                # The cached plan predates the feedback that doomed it (a
                # compute racing the invalidation can re-cache the stale
                # plan): drop it and recompile with the learned statistics.
                self._plans.invalidate(lambda key: key == plan_key)
                plan, generation = self._plans.get_or_compute(plan_key, compute_plan)[0]
            if generation >= required:
                with self._registry_lock:
                    reoptimized = self._replanned.pop(plan_key, None) is not None
                    if reoptimized:
                        self._feedback["reoptimizations"] += 1
                if reoptimized:
                    events.emit(
                        "plan.reoptimized",
                        query=plan_key[1],
                        generation=generation,
                    )
        elif converged_at is not None and generation < converged_at:
            # A stalled pre-feedback compute can publish its stale plan
            # *after* the replacement already converged (marker long
            # consumed); the generation tag exposes the resurrection.
            # The convergence verdict belonged to the replaced plan, so
            # it goes too — the recompiled plan must be observed afresh.
            self._plans.invalidate(lambda key: key == plan_key)
            with self._registry_lock:
                self._converged.pop(plan_key, None)
            plan, generation = self._plans.get_or_compute(plan_key, compute_plan)[0]
        if plan is _TARSKI_ROUTE and generation < statistics_for(storage).generation:
            # The enumeration-vs-algebra decision was costed under older
            # statistics; corrections learned since (possibly from other
            # queries sharing subplans) may flip it — re-decide.
            self._plans.invalidate(lambda key: key == plan_key)
            plan, generation = self._plans.get_or_compute(plan_key, compute_plan)[0]
        return plan, generation

    def _execute_plan(
        self,
        storage: PhysicalDatabase,
        plan_key: tuple,
        plan,
        evaluator: ApproximateEvaluator,
        query: Query,
        profiler: PlanProfiler | None = None,
    ) -> frozenset[tuple[str, ...]]:
        """Run one plan (or the Tarskian route), observing per feedback rules."""
        if self._feedback_threshold and plan is not None:
            current_generation = statistics_for(storage).generation
            with self._registry_lock:
                observe = self._converged.get(plan_key) != current_generation
        else:
            observe = False
        recorder = CardinalityRecorder() if observe else None
        approx = evaluator.answers_on_storage(
            storage, query, plan=plan, recorder=recorder, profiler=profiler
        )
        if recorder is not None:
            self._absorb_feedback(storage, recorder, plan_key)
        return approx

    def _approx_answers(
        self,
        entry: RegisteredDatabase,
        storage: PhysicalDatabase,
        query_text: str,
        query: Query,
        engine: str,
        virtual_ne: bool,
        profiler: PlanProfiler | None = None,
    ) -> frozenset[tuple[str, ...]]:
        """The approximate route: plan cache, feedback markers, auto dispatch."""
        evaluator = ApproximateEvaluator(engine=engine, virtual_ne=virtual_ne)
        # The plan depends on the snapshot content and the NE encoding
        # (ph2 derivation is deterministic in both), never on the method,
        # so content-identical snapshots share plans across aliases.
        plan_key = (entry.fingerprint, query_text, engine, virtual_ne)

        def compute_plan():
            generation = statistics_for(storage).generation
            plan = evaluator.plan_on_storage(storage, query)
            if plan is None and engine == "auto":
                plan = _TARSKI_ROUTE
            return (plan, generation)

        plan, __ = self._plan_with_markers(storage, plan_key, compute_plan)
        if plan is _TARSKI_ROUTE:
            evaluator = ApproximateEvaluator(engine="tarski", virtual_ne=virtual_ne)
            plan = None
        return self._execute_plan(storage, plan_key, plan, evaluator, query, profiler)

    @staticmethod
    def _soundness(approx, exact) -> tuple[bool | None, int | None]:
        if approx is None or exact is None:
            return None, None
        if not approx <= exact:
            raise ServiceError(
                "soundness violated: the approximation returned a non-certain answer — please report this as a bug"
            )
        return approx == exact, len(exact - approx)

    def _approx_prepared(
        self,
        entry: RegisteredDatabase,
        statement: PreparedStatement,
        bound_query: Query,
        rendered: str,
        values: Mapping[str, str],
    ) -> frozenset[tuple[str, ...]]:
        """Approximate route for a prepared execution: rebind the template plan.

        The plan cache holds one *template-keyed* entry per (snapshot,
        template, engine, NE encoding): the compiled + optimized plan with
        :class:`~repro.logic.terms.Parameter` placeholders still inside.
        Each execution substitutes the bound values into that plan — a pure
        tree rebuild — unless

        * no generic plan exists (second order, an explicitly Tarskian
          statement): fall back to the ad-hoc plan path on the bound query
          (still parse-free);
        * the ``auto`` dispatcher costed the template onto the Tarskian
          route: enumerate the bound query directly;
        * the bound plan's cost under *observed* statistics diverges from
          the generic estimate by the feedback threshold: this binding's
          selectivity is provably unlike the template's average, so compile
          a **custom plan** for it (cached under the bound text, exactly as
          an ad-hoc request would be).

        Feedback stays template-keyed: divergent observations invalidate the
        template entry, so the *template* is re-optimized on its next
        execution.
        """
        storage = entry.storage(statement.virtual_ne)
        evaluator = ApproximateEvaluator(engine=statement.engine, virtual_ne=statement.virtual_ne)
        template_key = (entry.fingerprint, statement.template, statement.engine, statement.virtual_ne)

        def compute_plan():
            generation = statistics_for(storage).generation
            plan = evaluator.plan_on_storage(storage, statement.query)
            if plan is None:
                plan = _TARSKI_ROUTE if statement.engine == "auto" else _AST_ROUTE
            return (plan, generation)

        plan, __ = self._plan_with_markers(storage, template_key, compute_plan)
        if plan is _AST_ROUTE:
            return self._approx_answers(
                entry, storage, rendered, bound_query, statement.engine, statement.virtual_ne
            )
        if plan is _TARSKI_ROUTE:
            tarskian = ApproximateEvaluator(engine="tarski", virtual_ne=statement.virtual_ne)
            return self._execute_plan(storage, template_key, None, tarskian, bound_query)
        # Resolving through constant_value makes a binding to an unknown
        # constant fail exactly like the equivalent ad-hoc request.
        resolved = {name: storage.constant_value(value) for name, value in values.items()}
        bound_plan = substitute_plan_parameters(plan, resolved)
        statistics = statistics_for(storage)
        if self._feedback_threshold and statistics.has_observations():
            generic_cost = self._generic_cost(template_key, plan, storage, statistics)
            bound_cost = plan_cost(bound_plan, storage, statistics)
            larger = max(generic_cost, bound_cost, 1.0)
            smaller = max(min(generic_cost, bound_cost), 1.0)
            if larger / smaller >= self._feedback_threshold:
                # Observed cardinalities say this binding behaves nothing
                # like the generic estimate — optimize a plan for *it*.
                with self._registry_lock:
                    self._prepared["custom_plans"] += 1
                return self._approx_answers(
                    entry, storage, rendered, bound_query, statement.engine, statement.virtual_ne
                )
        with self._registry_lock:
            self._prepared["generic_plans"] += 1
        return self._execute_plan(storage, template_key, bound_plan, evaluator, bound_query)

    def _generic_cost(self, template_key: tuple, plan, storage: PhysicalDatabase, statistics) -> float:
        """The template plan's estimated cost, cached per statistics generation.

        Binding-independent by construction (the estimator never looks at
        binding values), so the hot sweep path pays the plan-tree walk once
        per (template, statistics state) instead of once per execution; a
        new observation bumps the generation and naturally invalidates it.
        """
        key = (template_key, statistics.generation)
        with self._registry_lock:
            cached = self._generic_costs.get(key)
        if cached is None:
            cached = plan_cost(plan, storage, statistics)
            with self._registry_lock:
                bounded_insert(self._generic_costs, key, cached, self._marker_capacity)
        return cached

    def _evaluate_prepared(
        self,
        entry: RegisteredDatabase,
        statement: PreparedStatement,
        bound_query: Query,
        rendered: str,
        values: Mapping[str, str],
    ) -> QueryResponse:
        started = time.perf_counter()
        check_deadline("prepared evaluation")
        answers: dict[str, tuple[tuple[str, ...], ...]] = {}
        approx: frozenset[tuple[str, ...]] | None = None
        exact: frozenset[tuple[str, ...]] | None = None
        if statement.method in ("approx", "both"):
            approx = self._approx_prepared(entry, statement, bound_query, rendered, values)
            answers["approximate"] = tuple(tuple(row) for row in answers_to_wire(approx))
        if statement.method in ("exact", "both"):
            check_deadline("exact evaluation")
            exact = self._exact.certain_answers(entry.database, bound_query)
            answers["exact"] = tuple(tuple(row) for row in answers_to_wire(exact))
        complete, missed = self._soundness(approx, exact)
        return QueryResponse(
            database=entry.name,
            fingerprint=entry.fingerprint,
            query=rendered,
            method=statement.method,
            engine=statement.engine,
            virtual_ne=statement.virtual_ne,
            arity=statement.arity,
            answers=answers,
            complete=complete,
            missed=missed,
            cached=False,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _evaluate(self, entry: RegisteredDatabase, request: QueryRequest) -> QueryResponse:
        started = time.perf_counter()
        check_deadline("query evaluation")
        query = self._parse(request.query)
        answers: dict[str, tuple[tuple[str, ...], ...]] = {}
        approx: frozenset[tuple[str, ...]] | None = None
        exact: frozenset[tuple[str, ...]] | None = None
        profiler = PlanProfiler() if request.profile else None
        if request.method in ("approx", "both"):
            storage = entry.storage(request.virtual_ne)
            with span("evaluate approx", engine=request.engine):
                approx = self._approx_answers(
                    entry, storage, request.query, query, request.engine, request.virtual_ne, profiler
                )
            answers["approximate"] = tuple(tuple(row) for row in answers_to_wire(approx))
        if request.method in ("exact", "both"):
            # The exact route is exponential by design: refuse to start it
            # for a request whose budget is already spent.
            check_deadline("exact evaluation")
            with span("evaluate exact"):
                exact = self._exact.certain_answers(entry.database, query)
            answers["exact"] = tuple(tuple(row) for row in answers_to_wire(exact))
        complete, missed = self._soundness(approx, exact)
        return QueryResponse(
            database=entry.name,
            fingerprint=entry.fingerprint,
            query=request.query,
            method=request.method,
            engine=request.engine,
            virtual_ne=request.virtual_ne,
            arity=query.arity,
            answers=answers,
            complete=complete,
            missed=missed,
            cached=False,
            elapsed_seconds=time.perf_counter() - started,
            profile=profile_payload(request.method, profiler, node_label) if request.profile else None,
        )
