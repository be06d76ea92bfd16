"""The traced run: a span around every layer call, and the per-layer budget.

Spans are recorded by this file, around calls into each layer's *public*
functions — nothing inside ``src/repro`` is instrumented.  A run has four
parts:

1. **client passes** against the real server: pass A sends a fixed sample of
   the workload (even requests with a span per client call, odd ones plain —
   their p50 difference is the tracing overhead); pass B sends the next
   half-sample with the server's own observability on (trace context,
   ``account``, ``profile``), for the enabled-overhead share;
2. **stage replay** in this process: the same sample through
   ``parse_query`` -> ``rewrite_query`` -> ``compile_query`` -> ``optimize``
   -> ``execute_batched``, skipping the stages the server skips (answer-cache
   hits, prepared executions);
3. **engine replay**: the same sample through a fresh in-process
   ``QueryService`` (same cache states as the server's), then through the
   wire codec (``dump_wire`` / ``parse_wire``) and, for streams, a
   ``CursorStore``;
4. **cluster extras** (``cluster_scatter`` only): the sample against a
   single server, through an in-process ``local_router``, and the
   partition / snapshot-store boot steps.

Layer times are *means per request over the sample*, so they add up to the
end-to-end mean; what they do not explain is ``budget.residual_share``.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from repro.approx.alpha import AlphaAtom
from repro.approx.rewrite import rewrite_query
from repro.cluster.deploy import ClusterConfig, local_router, write_layouts
from repro.cluster.partition import partition_database
from repro.cluster.store import SnapshotStore
from repro.errors import ReproError
from repro.logic.formulas import walk
from repro.logic.parser import parse_query
from repro.logic.terms import Constant
from repro.logical.ph import ph2
from repro.observability import tracing
from repro.physical.batch import execute_batched
from repro.physical.compiler import compile_query
from repro.physical.dispatch import choose_engine
from repro.physical.evaluator import evaluate_query
from repro.physical.optimizer import optimize
from repro.physical.plan import LiteralTable, substitute_plan_parameters
from repro.service.client import ServiceClient
from repro.service.cursors import CursorStore
from repro.service.engine import QueryService
from repro.service.protocol import (
    ExecuteRequest,
    FetchRequest,
    answers_to_wire,
    dump_wire,
    parse_wire,
)

import harness
from workloads import DATABASE, PAGE_SIZE, SHAPES, Op, Workload, build_database, build_workload

HEALTH_PINGS = 200
#: ``AlphaAtom.holds`` calls timed per negated atom of the sample.
ALPHA_CALLS = 40


@contextmanager
def _collector(mode: str):
    """Run a block with the garbage collector ``"off"`` or seeing a ``"server"``-like heap.

    The stage functions are timed with the collector off: pure compute.  The
    in-process engine is timed the way the server runs, collector on — but
    this process also holds the request lists, the spans and a second
    ``Ph2`` copy, which would make its full collections slower than the
    server's; freezing what exists so far leaves the collector exactly the
    heap a fresh server has (the service and what it allocates).
    """
    gc.collect()
    if mode == "off":
        gc.disable()
    else:
        gc.freeze()
    try:
        yield
    finally:
        if mode == "off":
            gc.enable()
        else:
            gc.unfreeze()


class SpanRecorder:
    """Spans kept in memory: ``[name, start, end, parent, request_id]``.

    ``parent`` is the index of the enclosing span (``None`` at the top), and
    the spans of one request share ``request_id``.  Written out once, at the
    end, by :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request_id):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, request_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*, in seconds."""
        return sum(end - start for span_name, start, end, __, ___ in self.spans if span_name == name)

    def self_times(self) -> dict[str, float]:
        """Per name: span time minus the part its child spans cover."""
        own = [end - start for __, start, end, ___, ____ in self.spans]
        for __, start, end, parent, ___ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *__), seconds in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def dump(self, path: Path, **header) -> None:
        path.write_text(
            json.dumps(
                {
                    "schema": "e21-spans/v1",
                    "columns": ["name", "start", "end", "parent", "request_id"],
                    **header,
                    "self_seconds": self.self_times(),
                    "spans": self.spans,
                }
            )
        )


# Part 1: client passes ------------------------------------------------------------


def _pages(rows) -> int:
    return max(1, -(-len(rows) // PAGE_SIZE))


def pass_plain(deployment: harness.Deployment, sample: list[Op], recorder: SpanRecorder | None) -> dict:
    """Send *sample* in order; with a recorder, every even request is traced."""
    latencies, retained, failed, round_trips = [], {}, 0, 0
    with _collector("off"):
        own_cpu, started = time.process_time(), time.perf_counter()
        for index, op in enumerate(sample):
            begin = time.perf_counter()
            try:
                if recorder is not None and index % 2 == 0:
                    with recorder.span("client.request", index):
                        rows = deployment.send(op, lambda name: recorder.span(name, index))[0]
                else:
                    rows = deployment.send(op)[0]
            except ReproError:
                failed += 1
                continue
            latencies.append((index, time.perf_counter() - begin))
            retained[index] = rows
            round_trips += 1 + _pages(rows) if op.kind == "stream" else 1
        wall = time.perf_counter() - started
    return {
        "latencies": latencies,
        "retained": retained,
        "failed": failed,
        "round_trips": round_trips,
        "cpu_share": (time.process_time() - own_cpu) / wall,
    }


def pass_observed(deployment: harness.Deployment, sample: list[Op], prime: list[Op]) -> dict:
    """Send *sample* with trace context, ``account`` and ``profile`` switched on.

    Returns latencies, the cost bills that came back, and per request the
    client wall time next to the server's own root-span time.
    """
    observed = ServiceClient(deployment.server.base_url, account=True)
    latencies, bills, walls, server_spans, failed = [], [], [], [], 0

    try:
        for op in prime:  # the profiled variants are separate answer-cache entries
            deployment.send(op, client=observed, profile=True)
        for op in sample:
            begin = time.perf_counter()
            try:
                with tracing.trace("e21.request") as active:
                    response = deployment.send(op, client=observed, profile=True)[1]
            except ReproError:
                failed += 1
                continue
            wall = time.perf_counter() - begin
            latencies.append(wall)
            spans = active.spans
            root = next(span.span_id for span in spans if span.name == "e21.request")
            calls = {span.span_id for span in spans if span.parent_id == root}
            walls.append(wall)
            server_spans.append(
                sum(span.duration for span in spans if span.parent_id in calls and span.name.startswith("POST "))
            )
            if response is not None and response.cost is not None:
                bills.append((op, response.cached, dict(response.cost)))
    finally:
        observed.close()
    return {"latencies": latencies, "bills": bills, "walls": walls, "server_spans": server_spans, "failed": failed}


def _mean_seconds(call, repeats: int = HEALTH_PINGS) -> float:
    call()
    started = time.perf_counter()
    for __ in range(repeats):
        call()
    return (time.perf_counter() - started) / repeats


def framing_probes(client: ServiceClient) -> tuple[float, float]:
    """Mean round trips (seconds) of ``GET /health`` and of a POST that is a cache hit.

    The GET is HTTP framing with nothing behind it.  The POST — the set-up's
    first request, an answer-cache hit ever since — adds what every query
    pays around the engine: body read, envelope decode and encode, admission,
    accounting, the request log; :func:`cached_post_seconds` gives the part
    of it that is engine and codec, and the rest is the POST's framing.
    """
    return _mean_seconds(client.health), _mean_seconds(lambda: client.execute(harness.FIRST_REQUEST))


def cached_post_seconds(database) -> float:
    """In-process seconds of the probe POST: a cache-hit ``execute`` plus the wire codec."""
    service = QueryService()
    service.register(DATABASE, database)

    def call():
        response = service.execute(harness.FIRST_REQUEST)
        parse_wire(dump_wire(harness.FIRST_REQUEST))
        parse_wire(dump_wire(response))

    try:
        return _mean_seconds(call)
    finally:
        service.close()


# Part 2: stage replay -------------------------------------------------------------


def _plan_nodes(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def stage_replay(sample: list[Op], prime: list[Op], storage, recorder: SpanRecorder) -> dict:
    """The sample through the expression and data stages, one span per call.

    Mirrors what the server does per request: an answer-cache hit runs no
    stage; an ad-hoc miss runs all of them; a prepared miss only rebinds the
    template's cached plan and executes it (the priming executions compiled
    the templates).  ``engine="auto"`` requests the dispatcher routes to the
    Tarskian evaluator are executed there, under the same span.
    """
    answered = {op.text for op in prime}
    template_plans = {
        op.shape: optimize(compile_query(rewrite_query(parse_query(SHAPES[op.shape].template)), storage), storage)
        for op in prime
        if op.kind != "query"
    }
    rows_out = literal_rows = tarski_routed = 0
    alpha_atoms = []

    def plan_for(query, request_id):
        with recorder.span("approx.rewrite", request_id):
            rewritten = rewrite_query(query, "direct")
        with recorder.span("physical.compile", request_id):
            plan = compile_query(rewritten, storage)
        with recorder.span("physical.optimize", request_id):
            plan = optimize(plan, storage)
        return rewritten, plan

    for index, op in enumerate(sample):
        if op.text in answered:
            continue
        answered.add(op.text)
        with recorder.span("replay.request", index):
            if op.kind == "query":
                with recorder.span("logic.parse", index):
                    query = parse_query(op.text)
                rewritten, plan = plan_for(query, index)
                alpha_atoms.extend(node for node in walk(rewritten.formula) if isinstance(node, AlphaAtom))
                literal_rows += sum(
                    len(node.rows) for node in _plan_nodes(plan) if isinstance(node, LiteralTable) and node.columns
                )
                if choose_engine(storage, rewritten, plan) == "tarski":
                    tarski_routed += 1
                    plan = None
            else:
                with recorder.span("service.prepared.bind", index):
                    resolved = {name: storage.constant_value(value) for name, value in op.params.items()}
                    plan = substitute_plan_parameters(template_plans[op.shape], resolved)
            with recorder.span("physical.execute", index):
                rows = evaluate_query(storage, rewritten) if plan is None else execute_batched(plan, storage).rows
            # The engine builds the canonical wire form of the answer set
            # before any codec sees it; it is the protocol layer's function.
            with recorder.span("service.protocol.answers_to_wire", index):
                rows_out += len(tuple(tuple(row) for row in answers_to_wire(rows)))
    return {
        "rows_out": rows_out,
        "literal_rows": literal_rows,
        "tarski_routed": tarski_routed,
        "alpha_atoms": alpha_atoms,
    }


def alpha_holds_seconds(alpha_atoms: list, storage) -> float:
    """Mean seconds of one ``AlphaAtom.holds`` call over the sample's negated atoms."""
    if not alpha_atoms:
        return 0.0
    domain = sorted(storage.active_domain(), key=repr)
    calls = 0
    started = time.perf_counter()
    for atom in alpha_atoms[:5]:
        for position in range(ALPHA_CALLS):
            candidate = domain[(position * 37) % len(domain)]
            values = tuple(
                storage.constant_value(term.name) if isinstance(term, Constant) else candidate for term in atom.args
            )
            atom.holds(storage, values)
            calls += 1
    return (time.perf_counter() - started) / calls


# Part 3: engine and wire replay ---------------------------------------------------


def engine_replay(workload: Workload, sample: list[Op], database, recorder: SpanRecorder, service=None) -> dict:
    """The sample through an in-process service from its start, then the wire codec.

    *service* defaults to a fresh ``QueryService``; the cluster run passes a
    ``local_router`` to time the routing layer without sockets.
    """
    routed = service is not None
    if service is None:
        service = QueryService()
        service.register(DATABASE, database)
    prefix = "cluster.router" if routed else "service"
    statements = {
        shape: service.prepare(DATABASE, SHAPES[shape].template, "approx", "auto") for shape in workload.prepared
    }
    cursors = CursorStore()
    for op in workload.prime:
        _engine_call(service, statements, op)
    request_bytes = response_bytes = 0
    responses = {}
    try:
        for index, op in enumerate(sample):
            name = f"{prefix}.engine.execute" if op.kind == "query" else f"{prefix}.prepared.execute"
            with recorder.span(name, index):
                response = _engine_call(service, statements, op)
            responses[index] = response.answers["approximate"]
            if routed:
                continue
            if op.kind == "query":
                messages = [(op.request(), response)]
            else:
                request = ExecuteRequest(statements[op.shape].statement_id, dict(op.params), op.kind == "stream", PAGE_SIZE)
                messages = [(request, response)]
                if op.kind == "stream":
                    with recorder.span("service.cursors.open", index):
                        cursor = cursors.open(response, "approximate", PAGE_SIZE)
                    messages = [(request, cursor)]
                    for page in range(cursor.pages):
                        with recorder.span("service.cursors.fetch", index):
                            fetched = cursors.fetch(cursor.cursor_id, page)
                        messages.append((FetchRequest(cursor.cursor_id, page), fetched))
            for request, reply in messages:
                with recorder.span("service.protocol.encode", index):
                    request_text, reply_text = dump_wire(request), dump_wire(reply)
                with recorder.span("service.protocol.decode", index):
                    parse_wire(request_text)
                    parse_wire(reply_text)
                request_bytes += len(request_text)
                response_bytes += len(reply_text)
    finally:
        service.close()
    return {"responses": responses, "request_bytes": request_bytes, "response_bytes": response_bytes}


def _engine_call(service, statements, op: Op):
    if op.kind == "query":
        return service.execute(op.request())
    return service.execute_prepared(statements[op.shape].statement_id, op.params)


# Part 4: cluster extras -----------------------------------------------------------


def cluster_extras(workload: Workload, sample: list[Op], database, workdir: Path, recorder: SpanRecorder) -> dict:
    """Single-server baseline, in-process router, partition and store boot timings."""
    single = harness.set_up(workdir / "single", 1, workload.prepared, False)
    try:
        baseline = pass_plain(single, sample, None)
        probes = framing_probes(single.client)
    finally:
        single.close()
    config = ClusterConfig(shards=workload.shards)
    started = time.perf_counter()
    partition_database(DATABASE, database, config.scheme())
    partition_seconds = time.perf_counter() - started
    started = time.perf_counter()
    store = SnapshotStore(workdir / "store-replay")
    layouts = write_layouts({DATABASE: database}, store, config.scheme())
    loader = QueryService()
    for snapshot in layouts[DATABASE].snapshot_names():
        loader.register_from_store(store, snapshot)
    loader.close()
    boot_seconds = time.perf_counter() - started
    with _collector("server"):
        engine_replay(workload, sample, database, recorder, service=local_router({DATABASE: database}, config))
    return {
        "single_mean": statistics.fmean(latency for __, latency in baseline["latencies"]),
        "single_probes": probes,
        "partition_seconds": partition_seconds,
        "boot_seconds": boot_seconds,
    }


# The run --------------------------------------------------------------------------


def measure_layers(name: str, seed: int, seconds: float, out: Path) -> dict:
    """One traced run of workload *name*: the per-layer metrics."""
    workdir = harness.run_directory(name)
    database = build_database()
    workload = build_workload(name, database, seed, seconds)
    size = max(24, int(workload.trace_rate * seconds)) // 2 * 2
    sample, observed_sample = workload.ops[:size], workload.ops[size:size + size // 2]
    recorder = SpanRecorder()
    seen: dict = {"size": size}
    deployment = harness.set_up(workdir / "main", workload.shards, workload.prepared, False)
    try:
        for op in workload.prime:
            deployment.send(op)
        seen["before"] = deployment.snapshot()
        seen["pass_a"] = pass_plain(deployment, sample, recorder)
        seen["after"] = deployment.snapshot()
        seen["pass_b"] = pass_observed(deployment, observed_sample, workload.prime)
        seen["probes"] = framing_probes(deployment.client)
        seen["counters"] = dict(deployment.client.metrics().counters)
        environment = harness.environment_stanza(deployment.server)
        setup_seconds = deployment.setup_seconds
    finally:
        deployment.close()
    try:
        seen["cluster"] = None
        if workload.shards > 1:
            seen["cluster"] = cluster_extras(workload, sample, database, workdir, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    started = time.perf_counter()
    storage = ph2(database)
    seen["ph2_seconds"] = time.perf_counter() - started
    seen["ne_rows"] = len(storage.relation("NE"))
    with _collector("off"):
        seen["stages"] = stage_replay(sample, workload.prime, storage, recorder)
    with _collector("server"):
        seen["engine"] = engine_replay(workload, sample, database, recorder)
    seen["alpha_seconds"] = alpha_holds_seconds(seen["stages"]["alpha_atoms"], storage)
    seen["cached_post_seconds"] = cached_post_seconds(database)

    # Answers: server == in-process engine on the whole sample, == oracle on a part.
    retained = seen["pass_a"]["retained"]
    mismatched = sum(
        1
        for index, rows in retained.items()
        if harness.canonical(rows) != harness.canonical(seen["engine"]["responses"][index])
    )
    oracle_part = {index: rows for index, rows in retained.items() if index < harness.VERIFY_SAMPLE // 3}
    verified, wrong, digest = harness.verify(workload, oracle_part, database)
    failed = seen["pass_a"]["failed"] + seen["pass_b"]["failed"]
    attempted = size + len(observed_sample)

    values = layer_values(seen, workload, sample, recorder)
    values["client.failed_share"] = failed / attempted
    values["client.wrong_answers"] = float(wrong + mismatched)
    out.mkdir(parents=True, exist_ok=True)
    recorder.dump(out / f"trace_{name}.json", workload=name, seed=seed, sample=size)
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": 1,
        "correct": wrong == 0 and mismatched == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "details": {
            "sample": size,
            "observed_sample": len(observed_sample),
            "verified": verified,
            "answers_digest": digest,
            "setup_s": setup_seconds,
            "self_seconds": recorder.self_times(),
        },
        "environment": environment,
    }


def layer_values(seen: dict, workload: Workload, sample: list[Op], recorder: SpanRecorder) -> dict[str, float]:
    """The per-layer metrics from what the four parts of the run observed."""
    size = seen["size"]
    pass_a, pass_b, stages, engine, cluster = (seen[key] for key in ("pass_a", "pass_b", "stages", "engine", "cluster"))
    before, after, counters = seen["before"], seen["after"], seen["counters"]

    def per_request_us(*span_names: str) -> float:
        return 1e6 * sum(recorder.total(span_name) for span_name in span_names) / size

    latencies = [latency for __, latency in pass_a["latencies"]]
    ordered = sorted(latencies)
    mean_us = 1e6 * statistics.fmean(latencies)
    traced = [latency for index, latency in pass_a["latencies"] if index % 2 == 0]
    untraced = [latency for index, latency in pass_a["latencies"] if index % 2 == 1]
    stage_us = per_request_us(
        "logic.parse", "approx.rewrite", "physical.compile", "physical.optimize", "physical.execute",
        "service.prepared.bind", "service.protocol.answers_to_wire",
    )
    engine_us = per_request_us("service.engine.execute")
    prepared_us = per_request_us("service.prepared.execute")
    protocol_us = per_request_us("service.protocol.encode", "service.protocol.decode")
    cursors_us = per_request_us("service.cursors.open", "service.cursors.fetch")
    round_trips = pass_a["round_trips"] / len(latencies)
    # The router is not a cache, so its probe POST still fans out: on the
    # cluster, take the framing of one leg from the single server, and count
    # the worker leg (framing and codec) a second time.
    get_seconds, post_seconds = cluster["single_probes"] if cluster else seen["probes"]
    post_framing_us = 1e6 * (post_seconds - seen["cached_post_seconds"])
    hop_us = inproc_us = second_leg_us = 0.0
    if cluster:
        hop_us = mean_us - 1e6 * cluster["single_mean"]
        routed_us = per_request_us("cluster.router.engine.execute", "cluster.router.prepared.execute")
        inproc_us = routed_us - engine_us - prepared_us
        second_leg_us = post_framing_us + protocol_us
    explained_us = (
        engine_us + prepared_us + protocol_us + cursors_us + post_framing_us * round_trips + inproc_us + second_leg_us
    )
    fetches = sum(1 for span in recorder.spans if span[0] == "client.fetch_page")
    traced_streams = sum(1 for index, op in enumerate(sample) if op.kind == "stream" and index % 2 == 0)
    bills = [bill for __, cached, bill in pass_b["bills"] if not cached]
    generic = after["prepared"].get("generic_plans", 0) - before["prepared"].get("generic_plans", 0)
    custom = after["prepared"].get("custom_plans", 0) - before["prepared"].get("custom_plans", 0)
    emitted = sum(bill["rows_emitted"] for bill in bills)
    return {
        "logic.parse_us": per_request_us("logic.parse"),
        "approx.rewrite_us": per_request_us("approx.rewrite"),
        "approx.alpha_holds_us": 1e6 * seen["alpha_seconds"],
        "approx.alpha_literal_rows": stages["literal_rows"] / size,
        "physical.compile_us": per_request_us("physical.compile"),
        "physical.optimize_us": per_request_us("physical.optimize"),
        "physical.execute_us": per_request_us("physical.execute"),
        "physical.rows_out_per_request": stages["rows_out"] / size,
        "physical.rows_scanned_per_row_out": sum(bill["rows_scanned"] for bill in bills) / max(emitted, 1),
        "logical.ph2_build_s": seen["ph2_seconds"],
        "logical.ne_rows": float(seen["ne_rows"]),
        "service.engine.execute_us": engine_us,
        "service.prepared.execute_us": prepared_us,
        "service.engine.self_us": engine_us + prepared_us - stage_us,
        "service.engine.tarski_route_share": stages["tarski_routed"] / size,
        "service.prepared.generic_plan_share": generic / (generic + custom) if generic + custom else 0.0,
        "service.cache.answer_hit_share": harness.hit_share(before["answer_cache"], after["answer_cache"]),
        "service.cache.plan_hit_share": harness.hit_share(before["plan_cache"], after["plan_cache"]),
        "service.protocol.encode_us": per_request_us("service.protocol.answers_to_wire", "service.protocol.encode"),
        "service.protocol.decode_us": per_request_us("service.protocol.decode"),
        "service.protocol.request_bytes": engine["request_bytes"] / size,
        "service.protocol.response_bytes": engine["response_bytes"] / size,
        "service.http.framing_us": 1e6 * get_seconds,
        "service.http.post_framing_us": post_framing_us,
        "service.http.self_us": mean_us - engine_us - prepared_us - protocol_us - cursors_us,
        "service.cursors.pages_per_stream": fetches / traced_streams if traced_streams else 0.0,
        "service.cursors.fetch_page_us": 1e6 * recorder.total("client.fetch_page") / fetches if fetches else 0.0,
        "service.cursors.inproc_us": cursors_us,
        "cluster.router.hop_us": hop_us,
        "cluster.router.inproc_us": inproc_us,
        "cluster.router.scatter_share": harness.routing_share(before["routing"], after["routing"], "scatter"),
        "cluster.router.full_copy_share": harness.routing_share(before["routing"], after["routing"], "full_copy"),
        "cluster.router.conjunction_share": harness.routing_share(before["routing"], after["routing"], "conjunction"),
        "cluster.router.retries": float(counters.get("router.retries", 0)),
        "cluster.router.failovers": float(after["failovers"]),
        "cluster.store.boot_s": cluster["boot_seconds"] if cluster else 0.0,
        "cluster.partition.partition_s": cluster["partition_seconds"] if cluster else 0.0,
        "resilience.admission.shed": float(counters.get("admission.sheds", 0)),
        "resilience.admission.queue_wait_us": (
            1e6 * statistics.fmean(bill["queue_wait_seconds"] for bill in bills) if bills else 0.0
        ),
        "observability.enabled_overhead_share": statistics.median(pass_b["latencies"]) / statistics.median(latencies) - 1.0,
        "observability.account_operator_share": _operator_share(bills, workload, sample, recorder),
        "observability.trace_residual_share": 1.0 - sum(pass_b["server_spans"]) / sum(pass_b["walls"]),
        "loadgen.cpu_share": pass_a["cpu_share"],
        "loadgen.tracing_overhead_us": 1e6 * (statistics.median(traced) - statistics.median(untraced)),
        "client.latency_mean_us": mean_us,
        "client.latency_p50_ms": 1e3 * harness.percentile(ordered, 0.50),
        "client.latency_p95_ms": 1e3 * harness.percentile(ordered, 0.95),
        "client.latency_p99_ms": 1e3 * harness.percentile(ordered, 0.99),
        "client.latency_max_ms": 1e3 * ordered[-1],
        "client.round_trips_per_request": round_trips,
        "budget.explained_us": explained_us,
        "budget.residual_share": (mean_us - explained_us) / mean_us,
    }


def _operator_share(bills: list, workload: Workload, sample: list[Op], recorder: SpanRecorder) -> float:
    """Billed ``operator_seconds`` against the replayed engine time, per miss.

    Pass B sends other requests than the replayed sample (same mix), so both
    sides are means over their non-cached requests.
    """
    hot = {op.text for op in workload.prime}
    replayed = [
        end - start
        for span_name, start, end, __, index in recorder.spans
        if span_name in ("service.engine.execute", "service.prepared.execute") and sample[index].text not in hot
    ]
    if not bills or not replayed:
        return 0.0
    return statistics.fmean(bill["operator_seconds"] for bill in bills) / statistics.fmean(replayed)
