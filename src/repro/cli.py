"""Command-line interface for querying CW logical databases stored as CSV.

This is the thin "DBA view" of the library: point it at a directory written
by :func:`repro.physical.csvio.save_cw_database` (``schema.json``, one CSV
per predicate, ``unknown.csv`` and ``ne_prime.csv``) and ask queries in the
textual query language.  Three evaluation routes are exposed:

* ``approx`` (default) — the sound polynomial approximation of Section 5;
* ``exact`` — certain answers via Theorem 1 (exponential; refuses to start
  past a capacity limit);
* ``both`` — run both and report whether the approximation was complete.

Every read command also takes ``--json``, which prints the same protocol
message the HTTP service would return (one serializer,
:mod:`repro.service.protocol`, feeds both).  Three further commands wrap the
serving subsystem: ``serve`` starts the JSON HTTP front-end over one or
more stored databases — optionally as a sharded multi-process cluster —
``client`` talks to a running server, and ``cluster`` manages the
persistent snapshot store (partitioning databases into it, listing its
contents).

Examples::

    python -m repro.cli info db_dir/
    python -m repro.cli query db_dir/ "(x) . ~MURDERER(x)"
    python -m repro.cli query db_dir/ "(x) . P(x)" --analyze
    python -m repro.cli query db_dir/ "(x) . P(x)" --method exact --json
    python -m repro.cli query db_dir/ "(x) . R($k, x)" --param k=alice
    python -m repro.cli classify "(x) . exists y. R(x, y) & ~P(y)"
    python -m repro.cli serve db_dir/ --port 8080
    python -m repro.cli serve db_dir/ --shards 4 --replicas 2 --store store/ --warm traffic.jsonl
    python -m repro.cli cluster partition db_dir/ --store store/ --shards 4
    python -m repro.cli cluster snapshots --store store/
    python -m repro.cli cluster gc --store store/
    python -m repro.cli client http://127.0.0.1:8080 query db_dir "(x) . P(x)"
    python -m repro.cli client http://127.0.0.1:8080 prepared db_dir "(x) . R($k, x)" \\
        --bind k=alice --bind k=bob
    python -m repro.cli client http://127.0.0.1:8080 prepared db_dir "(x, y) . R(x, y)" --stream
    python -m repro.cli client http://127.0.0.1:8080 explain db_dir "(x) . P(x)"
    python -m repro.cli client http://127.0.0.1:8080 metrics
    python -m repro.cli client http://127.0.0.1:8080 query db_dir "(x) . P(x)" --cost
    python -m repro.cli client http://127.0.0.1:8080 debug --json > recorder.json
    python -m repro.cli trace export recorder.json -o timeline.json
    python -m repro.cli top http://127.0.0.1:8080 http://127.0.0.1:8081 --interval 2
    python -m repro.cli chaos plan --faults "seed=7 refuse=0.1 garble@25" --draws 50
    python -m repro.cli chaos run http://127.0.0.1:8080 db_dir "(x) . P(x)" \\
        --faults "seed=7 drop=0.05 delay=0.1" --requests 50 --deadline-ms 2000
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from pathlib import Path
from typing import Sequence

from repro.complexity.classes import classify_query
from repro.errors import ReproError
from repro.harness.reporting import format_table
from repro.logic.parser import parse_query
from repro.observability.explain import render_profile
from repro.physical.csvio import load_cw_database
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.protocol import (
    DatabasesResponse,
    QueryRequest,
    QueryResponse,
    build_classify_response,
    build_info_response,
    dump_wire,
)
from repro.service.server import serve as serve_forever

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query closed-world logical databases with unknown values (Vardi, PODS 1985).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="describe a stored CW logical database")
    info.add_argument("database", help="directory written by save_cw_database()")
    info.add_argument("--json", action="store_true", help="print a protocol InfoResponse instead of text")

    query = commands.add_parser("query", help="evaluate a query against a stored database")
    query.add_argument("database", help="directory written by save_cw_database()")
    query.add_argument("query", help="query text, e.g. \"(x) . ~MURDERER(x)\"")
    _add_query_options(query)
    query.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE: print the executed operator tree with per-node "
        "rows, wall time and index/scan/memo access after the answers",
    )
    query.add_argument("--json", action="store_true", help="print a protocol QueryResponse instead of text")

    classify = commands.add_parser("classify", help="show a query's prefix class and the paper's bounds")
    classify.add_argument("query", help="query text")
    classify.add_argument("--json", action="store_true", help="print a protocol ClassifyResponse instead of text")

    serve = commands.add_parser("serve", help="serve stored databases over the JSON HTTP protocol")
    serve.add_argument(
        "databases",
        nargs="+",
        help="directories written by save_cw_database(); use NAME=DIR to pick the registered name "
        "(default: the directory basename)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080, help="TCP port (default 8080)")
    serve.add_argument(
        "--cache-capacity",
        type=int,
        default=None,
        help="answer-cache capacity (0 disables caching; default: the service default)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve as a sharded multi-process cluster with this many worker processes "
        "(default 1: the single-process service)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="replication factor: how many workers hold each shard (and the full copy)",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persistent snapshot store directory (cluster mode; default: a temporary directory)",
    )
    serve.add_argument(
        "--warm",
        metavar="FILE",
        default=None,
        help="replay a recorded traffic log (JSONL of query_request messages) through the "
        "caches before accepting connections",
    )
    serve.add_argument(
        "--degraded",
        choices=("stale_cache",),
        default=None,
        help="cluster mode: when every replica of a shard is down, serve previously-answered "
        "requests from the router's stale cache, flagged degraded=true (default: fail loudly)",
    )

    top = commands.add_parser(
        "top", help="live dashboard: poll GET /metrics across servers and redraw one table"
    )
    top.add_argument("urls", nargs="+", help="service base URLs to poll, e.g. http://127.0.0.1:8080")
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls (default 2)"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after this many refreshes (default: run until interrupted)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append refreshes instead of redrawing the screen (for logs and pipes)",
    )

    trace = commands.add_parser("trace", help="work with captured traces")
    trace_actions = trace.add_subparsers(dest="action", required=True)
    tr_export = trace_actions.add_parser(
        "export", help="render a captured trace to Chrome trace-event JSON (chrome://tracing, Perfetto)"
    )
    tr_export.add_argument(
        "file",
        help="JSON file holding traces: a response envelope with a 'trace' field, a "
        "flight-recorder snapshot (repro client URL debug --json), or a raw trace "
        "payload; '-' reads stdin",
    )
    tr_export.add_argument(
        "-o", "--output", default=None, metavar="FILE", help="write here instead of stdout"
    )

    cluster = commands.add_parser("cluster", help="manage the persistent snapshot store")
    cluster_actions = cluster.add_subparsers(dest="action", required=True)

    cl_partition = cluster_actions.add_parser(
        "partition", help="partition a stored database into shard snapshots in a store"
    )
    cl_partition.add_argument("database", help="directory written by save_cw_database()")
    cl_partition.add_argument("--store", metavar="DIR", required=True, help="snapshot store directory")
    cl_partition.add_argument("--shards", type=int, default=2, help="number of shards (default 2)")
    cl_partition.add_argument(
        "--name", default=None, help="base snapshot name (default: the directory basename)"
    )
    cl_partition.add_argument(
        "--replication-threshold",
        type=int,
        default=None,
        help="relations with at most this many facts are replicated to every shard "
        "instead of split (default: the library default)",
    )

    cl_snapshots = cluster_actions.add_parser("snapshots", help="list the snapshots in a store")
    cl_snapshots.add_argument("--store", metavar="DIR", required=True, help="snapshot store directory")

    cl_gc = cluster_actions.add_parser(
        "gc", help="delete stored objects no snapshot name references any more"
    )
    cl_gc.add_argument("--store", metavar="DIR", required=True, help="snapshot store directory")

    client = commands.add_parser("client", help="talk to a running repro service")
    client.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8080")
    actions = client.add_subparsers(dest="action", required=True)

    c_health = actions.add_parser("health", help="liveness probe")
    c_databases = actions.add_parser("databases", help="list registered databases")
    c_stats = actions.add_parser("stats", help="cache/batch counters")
    c_metrics = actions.add_parser("metrics", help="telemetry snapshot: counters, gauges, latency percentiles")
    c_debug = actions.add_parser(
        "debug", help="dump the server's flight recorder: captured slow and failed requests"
    )
    for spare in (c_health, c_databases, c_stats, c_metrics, c_debug):
        spare.add_argument("--json", action="store_true", help="print the raw protocol message")

    c_info = actions.add_parser("info", help="describe a registered database")
    c_info.add_argument("name", help="registered database name")
    c_info.add_argument("--json", action="store_true", help="print a protocol InfoResponse instead of text")

    c_query = actions.add_parser("query", help="evaluate a query remotely")
    c_query.add_argument("name", help="registered database name")
    c_query.add_argument("query", help="query text")
    _add_query_options(c_query)
    c_query.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE: ask the server to profile the execution and "
        "print the operator tree after the answers",
    )
    c_query.add_argument("--json", action="store_true", help="print a protocol QueryResponse instead of text")
    c_query.add_argument(
        "--cost",
        action="store_true",
        help="request the per-query resource bill (rows scanned/emitted, operator time, "
        "cache hits, queue wait, retries, bytes) and print it after the answers",
    )

    c_explain = actions.add_parser(
        "explain",
        help="profile a query remotely (EXPLAIN ANALYZE) and print only the operator tree",
    )
    c_explain.add_argument("name", help="registered database name")
    c_explain.add_argument("query", help="query text")
    _add_query_options(c_explain)
    c_explain.add_argument("--json", action="store_true", help="print the raw protocol QueryResponse")

    c_prepared = actions.add_parser(
        "prepared",
        help="prepare a query template remotely, then execute it under one or many bindings",
    )
    c_prepared.add_argument("name", help="registered database name")
    c_prepared.add_argument("template", help="query template, e.g. \"(x) . R($k, x)\"")
    c_prepared.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="NAME=VALUE[,NAME=VALUE...]",
        help="one parameter binding per flag (repeat for a sweep); commas separate "
        "the parameters of one binding, so values must not contain commas here",
    )
    c_prepared.add_argument(
        "--stream",
        action="store_true",
        help="stream the (single) binding's answer rows through a server cursor "
        "instead of one JSON body",
    )
    c_prepared.add_argument(
        "--page-size",
        type=int,
        default=None,
        help="rows per streamed page (with --stream; default: the protocol default)",
    )
    c_prepared.add_argument(
        "--method", choices=("approx", "exact", "both"), default="approx",
        help="evaluation route (default approx)",
    )
    c_prepared.add_argument(
        "--json", action="store_true",
        help="print the raw protocol responses instead of text",
    )

    c_classify = actions.add_parser("classify", help="classify a query remotely")
    c_classify.add_argument("query", help="query text")
    c_classify.add_argument("--json", action="store_true", help="print a protocol ClassifyResponse instead of text")

    chaos = commands.add_parser(
        "chaos", help="deterministic fault-injection drills (preview a schedule, or hammer a service)"
    )
    chaos_actions = chaos.add_subparsers(dest="action", required=True)

    ch_plan = chaos_actions.add_parser(
        "plan", help="print the exact fault schedule a spec produces (no service needed)"
    )
    ch_plan.add_argument(
        "--faults",
        required=True,
        metavar="SPEC",
        help='fault spec, e.g. "seed=7 refuse=0.05 delay=0.1 refuse@100-200 garble@250 limit=500"',
    )
    ch_plan.add_argument(
        "--draws", type=int, default=100, help="how many operations to preview (default 100)"
    )

    ch_run = chaos_actions.add_parser(
        "run", help="send one query many times under injected transport faults and check answer agreement"
    )
    ch_run.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8080")
    ch_run.add_argument("database", help="registered database name")
    ch_run.add_argument("query", help="query text")
    ch_run.add_argument(
        "--faults", required=True, metavar="SPEC", help="fault spec (see `repro chaos plan`)"
    )
    ch_run.add_argument(
        "--requests", type=int, default=100, help="how many requests to send (default 100)"
    )
    ch_run.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        help="propagate a per-request deadline budget (milliseconds)",
    )

    return parser


def _add_query_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=("approx", "exact", "both"),
        default="approx",
        help="evaluation route (default: the sound polynomial approximation)",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a $NAME query parameter to a constant (repeatable); the query "
        "may then be a template like \"(x) . R($k, x)\"",
    )


def _parse_params(pairs: Sequence[str]) -> dict[str, str]:
    """``--param k=v`` pairs → a binding mapping (repeats keep the last value)."""
    params: dict[str, str] = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise ReproError(f"--param needs NAME=VALUE, got {pair!r}")
        params[name] = value
    return params


def _parse_bindings(specifications: Sequence[str]) -> list[dict[str, str]]:
    """``--bind k=v,k2=v2`` specifications → one binding mapping each."""
    bindings = []
    for specification in specifications:
        binding: dict[str, str] = {}
        for pair in specification.split(","):
            name, separator, value = pair.partition("=")
            if not separator or not name:
                raise ReproError(f"--bind needs NAME=VALUE[,NAME=VALUE...], got {specification!r}")
            binding[name.strip()] = value
        bindings.append(binding)
    return bindings


def _command_info(arguments: argparse.Namespace) -> int:
    database = load_cw_database(arguments.database)
    if arguments.json:
        name = Path(arguments.database).name or str(arguments.database)
        print(dump_wire(build_info_response(name, database), indent=2))
        return 0
    print(database.describe())
    rows = [
        [predicate, arity, len(database.facts_for(predicate))]
        for predicate, arity in sorted(database.predicates.items())
    ]
    print(format_table(["predicate", "arity", "facts"], rows))
    unknowns = sorted(database.unknown_constants())
    print(f"unknown constants ({len(unknowns)}):", ", ".join(unknowns) or "none")
    return 0


def _command_query(arguments: argparse.Namespace) -> int:
    # One-shot service: same evaluation, soundness check and serialization
    # as the server, printed as JSON or as the client prints it.
    params = _parse_params(arguments.param)
    name = Path(arguments.database).name or str(arguments.database)
    service = QueryService()
    service.register(name, load_cw_database(arguments.database), precompute=False)
    # A substring check ("$" in text) would misfire on quoted constants
    # containing a dollar sign; the parsed query knows for sure.
    is_template = params or parse_query(arguments.query).is_template
    if is_template and not arguments.analyze:
        # The prepared path: the CLI exercises exactly the session API
        # a server would, so the printed response is byte-compatible.
        statement = service.prepare(name, arguments.query, arguments.method)
        response = service.execute_prepared(statement.statement_id, params)
    else:
        text = arguments.query
        if is_template:
            # The session API shares answer-cache slots with unprofiled
            # requests and never profiles; bind locally and profile the
            # bound query as an ad-hoc request instead.
            from repro.logic.template import bind_query

            text = str(bind_query(parse_query(text), params))
        response = service.execute(QueryRequest(name, text, arguments.method, profile=arguments.analyze))
    if arguments.json:
        print(dump_wire(response, indent=2))
    else:
        _print_query_response(response)
    return 0


def _command_classify(arguments: argparse.Namespace) -> int:
    query = parse_query(arguments.query)
    info = classify_query(query)
    if arguments.json:
        print(dump_wire(build_classify_response(arguments.query, info), indent=2))
        return 0
    print(info.summary())
    return 0


def _named_databases(specifiers: Sequence[str]) -> dict[str, object]:
    """Resolve ``NAME=DIR`` / ``DIR`` specifiers to loaded databases by name."""
    databases: dict[str, object] = {}
    for specifier in specifiers:
        # NAME=DIR picks the registered name; a '=' whose left side looks
        # like a path (contains a separator) is part of the directory.
        name, separator, directory = specifier.partition("=")
        if not separator or not name or "/" in name or "\\" in name:
            directory = specifier
            name = Path(directory).name or str(directory)
        if name in databases:
            raise ReproError(
                f"two databases would be registered as {name!r} — "
                f"disambiguate with NAME=DIR (e.g. other_{name}={directory})"
            )
        databases[name] = load_cw_database(directory)
    return databases


def _exit_on_sigterm(signum, frame) -> None:
    # SIGTERM's default action ends the process on the spot, orphaning a
    # cluster's workers and its temporary store; unwind through the cleanup.
    raise SystemExit(128 + signum)


def _command_serve(arguments: argparse.Namespace) -> int:
    if arguments.shards < 1:
        print("error: --shards must be at least 1", file=sys.stderr)
        return 2
    if arguments.shards == 1 and arguments.degraded is not None:
        print("error: --degraded only applies to cluster mode — add --shards N (N > 1)", file=sys.stderr)
        return 2
    if arguments.shards == 1 and (arguments.store is not None or arguments.replicas != 1):
        # Silently ignoring these would let a user believe snapshots were
        # persisted (or replicated) when nothing of the sort happened.
        print(
            "error: --store and --replicas only apply to cluster mode — add --shards N (N > 1)",
            file=sys.stderr,
        )
        return 2
    if arguments.shards > 1 and not 1 <= arguments.replicas <= arguments.shards:
        # The library clamps quietly; the operator asked for something
        # specific and deserves to hear it cannot be honoured.
        print(
            f"error: --replicas must be between 1 and --shards ({arguments.shards}), "
            f"got {arguments.replicas}",
            file=sys.stderr,
        )
        return 2
    databases = _named_databases(arguments.databases)
    warm_requests = None
    if arguments.warm is not None:
        from repro.workloads.traffic import load_traffic_log_tolerant

        try:
            warm_requests, skipped = load_traffic_log_tolerant(arguments.warm)
        except ReproError as error:
            # An unreadable warm-up log is a degraded boot, not a failed
            # one: the server starts cold and says why.
            print(f"warning: skipping warm-up — {error}", file=sys.stderr)
        else:
            # Malformed entries are skipped one by one (each also emitted
            # as a warmup.skipped_entry event): one corrupt line must not
            # cost the whole warm-up.
            for line_number, reason in skipped:
                print(
                    f"warning: skipping warm-up entry {arguments.warm}:{line_number} — {reason}",
                    file=sys.stderr,
                )

    cluster = None
    temporary_store = None
    previous_sigterm = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        if arguments.shards > 1:
            import tempfile

            from repro.cluster import start_cluster

            if arguments.store is None:
                temporary_store = tempfile.mkdtemp(prefix="repro-cluster-store-")
            store_dir = arguments.store or temporary_store
            cluster = start_cluster(
                databases,
                store_dir,
                shards=arguments.shards,
                replicas=arguments.replicas,
                answer_cache_capacity=arguments.cache_capacity,
                degraded=arguments.degraded,
            )
            service = cluster.router
            print(
                f"cluster: {arguments.shards} workers, replication factor {arguments.replicas}, "
                f"snapshot store at {store_dir}"
            )
        else:
            kwargs = {}
            if arguments.cache_capacity is not None:
                kwargs["answer_cache_capacity"] = arguments.cache_capacity
            service = QueryService(**kwargs)
            for name, database in databases.items():
                service.register(name, database)

        if warm_requests is not None:
            report = service.warm(warm_requests)
            print(
                f"warm-up: replayed {report.total} requests "
                f"({report.warmed} warmed, {report.already_cached} already cached, {report.failed} failed)"
            )
        try:
            serve_forever(service, host=arguments.host, port=arguments.port)
        except OSError as error:
            print(f"error: cannot bind {arguments.host}:{arguments.port} — {error}", file=sys.stderr)
            return 2
    finally:
        # The cleanup covers boot failures too (a worker that refuses to
        # start must not strand a cluster's worth of snapshot copies).
        if cluster is not None:
            cluster.close()
        if temporary_store is not None:
            # A store nobody named is a scratch area, not a persistence
            # request — leaving it would leak a full database copy per run.
            import shutil

            shutil.rmtree(temporary_store, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous_sigterm)
    return 0


def _command_top(arguments: argparse.Namespace) -> int:
    """Poll ``GET /metrics`` across servers and redraw one dashboard table."""
    import time

    from repro.observability.dashboard import render_top

    if arguments.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 2
    clients = [ServiceClient(url) for url in arguments.urls]
    previous: dict[str, object] = {}
    previous_time: float | None = None
    refreshed = 0
    try:
        while True:
            servers = []
            for url, client in zip(arguments.urls, clients):
                try:
                    servers.append((url, client.metrics()))
                except ReproError:
                    servers.append((url, None))
            now = time.monotonic()
            elapsed = now - previous_time if previous_time is not None else None
            screen = render_top(servers, previous, elapsed)
            if not arguments.plain:
                # ANSI clear + home: a full-screen redraw without curses, so
                # the dashboard works over ssh and inside tmux alike.
                sys.stdout.write("\x1b[2J\x1b[H")
            print(screen, flush=True)
            previous = {url: metrics for url, metrics in servers if metrics is not None}
            previous_time = now
            refreshed += 1
            if arguments.iterations is not None and refreshed >= arguments.iterations:
                return 0
            time.sleep(arguments.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        for client in clients:
            with contextlib.suppress(Exception):
                client.close()


def _command_trace(arguments: argparse.Namespace) -> int:
    """``repro trace export``: captured traces → Chrome trace-event JSON."""
    import json

    from repro.observability.export import chrome_trace_events

    if arguments.file == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(arguments.file).read_text()
        except OSError as error:
            print(f"error: cannot read {arguments.file}: {error}", file=sys.stderr)
            return 2
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        print(f"error: {arguments.file} is not valid JSON: {error}", file=sys.stderr)
        return 2
    try:
        rendered = chrome_trace_events(document)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    output = json.dumps(rendered, indent=2)
    if arguments.output is None:
        print(output)
        return 0
    Path(arguments.output).write_text(output + "\n")
    spans = sum(1 for event in rendered["traceEvents"] if event.get("ph") == "X")
    print(f"wrote {spans} span event(s) to {arguments.output}")
    return 0


def _command_cluster(arguments: argparse.Namespace) -> int:
    from repro.cluster import PartitionScheme, SnapshotStore, partition_database

    if arguments.action == "partition":
        database = load_cw_database(arguments.database)
        name = arguments.name or Path(arguments.database).name or str(arguments.database)
        scheme_kwargs = {}
        if arguments.replication_threshold is not None:
            scheme_kwargs["replication_threshold"] = arguments.replication_threshold
        from repro.cluster.deploy import write_layouts

        store = SnapshotStore(arguments.store)
        layouts = write_layouts({name: database}, store, PartitionScheme(arguments.shards, **scheme_kwargs))
        layout = layouts[name]
        print(
            f"partitioned {name!r} [{layout.fingerprint[:12]}] into {layout.n_shards} shard(s): "
            f"{len(layout.replicated)} relation(s) replicated, {len(layout.split)} split"
        )
        rows = [
            [snapshot, layout.snapshot(snapshot).size(), layout.snapshot(snapshot).fingerprint()[:12]]
            for snapshot in layout.snapshot_names()
        ]
        print(format_table(["snapshot", "size", "fingerprint"], rows))
        return 0
    if arguments.action == "snapshots":
        store = SnapshotStore(arguments.store)
        names = store.names()
        if not names:
            print("(no snapshots stored)")
            return 0
        rows = []
        for name in names:
            record = store.record(name)
            rows.append([name, record.fingerprint[:12], record.metadata.get("kind", "")])
        print(format_table(["snapshot", "fingerprint", "kind"], rows))
        return 0
    if arguments.action == "gc":
        store = SnapshotStore(arguments.store)
        deleted = store.gc()
        if not deleted:
            print("nothing to collect: every stored object is referenced")
            return 0
        for fingerprint in deleted:
            print(f"deleted unreferenced object {fingerprint[:12]}...")
        print(f"collected {len(deleted)} object(s)")
        return 0
    raise ReproError(f"unknown cluster action {arguments.action!r}")  # pragma: no cover - argparse guards


def _command_client(arguments: argparse.Namespace) -> int:
    account = getattr(arguments, "cost", False)
    with contextlib.closing(ServiceClient(arguments.url, account=account)) as client:
        return _client_action(client, arguments)


def _client_action(client: ServiceClient, arguments: argparse.Namespace) -> int:
    if arguments.action == "health":
        health = client.health()
        print(dump_wire(health, indent=2) if arguments.json else f"status: {health.status}")
        return 0
    if arguments.action == "databases":
        names = client.databases()
        if arguments.json:
            print(dump_wire(DatabasesResponse(names), indent=2))
            return 0
        print("\n".join(names) or "(no databases registered)")
        return 0
    if arguments.action == "stats":
        stats = client.stats()
        if arguments.json:
            print(dump_wire(stats, indent=2))
            return 0
        print(f"databases: {', '.join(stats.databases) or 'none'}")
        for label, counters in (("answer cache", stats.answer_cache), ("parse cache", stats.parse_cache)):
            print(f"{label}: " + ", ".join(f"{key}={value}" for key, value in sorted(counters.items())))
        print("batch: " + ", ".join(f"{key}={value}" for key, value in sorted(stats.batch.items())))
        if stats.prepared:
            print("prepared: " + ", ".join(f"{key}={value}" for key, value in sorted(stats.prepared.items())))
        return 0
    if arguments.action == "metrics":
        metrics = client.metrics()
        if arguments.json:
            print(dump_wire(metrics, indent=2))
            return 0
        _print_metrics(metrics)
        return 0
    if arguments.action == "debug":
        import json

        snapshot = client.debug()
        if arguments.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
            return 0
        _print_flight_recorder(snapshot)
        return 0
    if arguments.action == "info":
        info = client.info(arguments.name)
        if arguments.json:
            print(dump_wire(info, indent=2))
            return 0
        print(f"{info.name} [{info.fingerprint[:12]}]: {info.description}")
        rows = [
            [predicate, entry["arity"], entry["facts"]]
            for predicate, entry in sorted(info.predicates.items())
        ]
        print(format_table(["predicate", "arity", "facts"], rows))
        return 0
    if arguments.action == "query":
        params = _parse_params(arguments.param)
        try:
            # Parse locally (same library as the server) to decide the route;
            # a substring "$" check would misroute queries whose quoted
            # constants contain a dollar sign onto the session API.
            is_template = parse_query(arguments.query).is_template
        except ReproError:
            # Unparseable here: take the classic route so the *server's*
            # diagnosis surfaces (it may also be newer than this client).
            is_template = False
        if params or is_template:
            if arguments.analyze:
                # The session API shares answer-cache slots with unprofiled
                # requests and so never profiles.
                raise ReproError(
                    "--analyze does not apply to templates/bindings; "
                    "bind the parameters into the query text and retry"
                )
            # Templates go through the session API so the server binds them;
            # an unparameterized query stays on the classic route.
            handle = client.prepare(arguments.name, arguments.query, arguments.method)
            response = handle.execute(params)
        else:
            response = client.query(arguments.name, arguments.query, arguments.method, profile=arguments.analyze)
        if arguments.json:
            print(dump_wire(response, indent=2))
            return 0
        _print_query_response(response)
        if arguments.cost and response.cost is not None:
            from repro.observability.accounting import cost_summary

            print(f"cost: {cost_summary(response.cost)}")
        return 0
    if arguments.action == "explain":
        params = _parse_params(arguments.param)
        if params:
            raise ReproError(
                "explain does not apply to templates/bindings; "
                "bind the parameters into the query text and retry"
            )
        response = client.query(arguments.name, arguments.query, arguments.method, profile=True)
        if arguments.json:
            print(dump_wire(response, indent=2))
            return 0
        rows = response.answers.get("exact", response.answers.get("approximate", ()))
        print(f"{response.database}: {len(rows)} answer(s)")
        print(render_profile(response.profile))
        if response.cached:
            print("(served from cache: the profile is the cached execution's)")
        return 0
    if arguments.action == "prepared":
        return _command_client_prepared(client, arguments)
    if arguments.action == "classify":
        classification = client.classify(arguments.query)
        print(dump_wire(classification, indent=2) if arguments.json else classification.summary)
        return 0
    raise ReproError(f"unknown client action {arguments.action!r}")  # pragma: no cover - argparse guards


def _command_client_prepared(client: ServiceClient, arguments: argparse.Namespace) -> int:
    """The ``repro client URL prepared`` mode: prepare once, execute bindings."""
    handle = client.prepare(arguments.name, arguments.template, arguments.method)
    bindings = _parse_bindings(arguments.bind)
    if not arguments.json:
        needed = ", ".join(f"${name}" for name in handle.parameters) or "none"
        print(f"prepared {handle.statement_id}: {handle.template} (parameters: {needed})")
    if arguments.stream:
        if len(bindings) > 1:
            raise ReproError("--stream streams one binding; pass at most one --bind")
        params = bindings[0] if bindings else {}
        kwargs = {"page_size": arguments.page_size} if arguments.page_size else {}
        count = 0
        for row in handle.stream(params, **kwargs):
            print(", ".join(row) if row else "<true>")
            count += 1
        if not arguments.json:
            print(f"({count} row(s) streamed)")
        return 0
    if len(bindings) <= 1:
        response = handle.execute(bindings[0] if bindings else {})
        if arguments.json:
            print(dump_wire(response, indent=2))
            return 0
        _print_query_response(response)
        return 0
    batch = handle.execute_many(bindings)
    if arguments.json:
        print(dump_wire(batch, indent=2))
        return 0
    for binding, response in zip(bindings, batch.responses):
        label = ", ".join(f"${name}={value}" for name, value in sorted(binding.items()))
        if isinstance(response, QueryResponse):
            rows = response.answers.get("exact", response.answers.get("approximate", ()))
            print(f"[{label}] {len(rows)} answer(s): " + ("; ".join(", ".join(r) for r in rows) or "<empty>"))
        else:
            print(f"[{label}] error ({response.code}): {response.error}")
    print(f"executed {batch.total} binding(s), {batch.unique} unique, {batch.deduplicated} deduplicated")
    return 0


def _print_answer_sets(results: dict[str, frozenset[tuple[str, ...]]], arity: int) -> None:
    for label, answers in results.items():
        print(f"{label} answers ({len(answers)}):")
        for row in sorted(answers):
            print("  " + ", ".join(row) if row else "  <true>")
        if not answers:
            print("  <empty>" if arity else "  <false>")


def _print_query_response(response: QueryResponse) -> None:
    results = {label: response.answer_set(label) for label in response.answers}
    _print_answer_sets(results, response.arity)
    if response.complete is not None:
        status = "complete" if response.complete else f"sound but missed {response.missed} certain answer(s)"
        print(f"approximation was {status} on this instance")
    if response.cached:
        print("(served from cache)")
    if response.profile is not None:
        print(render_profile(response.profile))


def _command_chaos(arguments: argparse.Namespace) -> int:
    """Fault-injection drills: preview a deterministic schedule, or run one.

    ``chaos run`` is the operational sibling of the chaos property tests:
    it sends the same query repeatedly through a fault-injecting client and
    verifies the resilience invariant — every answer that does come back is
    identical; faults may cost availability, never correctness.
    """
    from repro.errors import (
        DeadlineExceededError,
        OverloadedError,
        ProtocolError,
        ServiceUnavailableError,
    )
    from repro.resilience import FaultPlan, deadline_scope

    plan = FaultPlan.from_spec(arguments.faults)
    if arguments.action == "plan":
        print(f"plan: {plan.describe()}")
        scheduled = plan.preview(arguments.draws)
        if not scheduled:
            print(f"no faults in the first {arguments.draws} operations")
            return 0
        print(format_table(["operation", "fault"], [[index, kind] for index, kind in scheduled]))
        return 0

    tallies = {"ok": 0, "degraded": 0, "unavailable": 0, "protocol": 0, "deadline": 0, "overloaded": 0}
    distinct_answers: set = set()
    with contextlib.closing(ServiceClient(arguments.url, fault_plan=plan)) as client:
        for _ in range(arguments.requests):
            scope = (
                deadline_scope(arguments.deadline_ms)
                if arguments.deadline_ms is not None
                else contextlib.nullcontext()
            )
            try:
                with scope:
                    response = client.query(arguments.database, arguments.query)
            except DeadlineExceededError:
                tallies["deadline"] += 1
            except OverloadedError:
                tallies["overloaded"] += 1
            except ServiceUnavailableError:
                tallies["unavailable"] += 1
            except ProtocolError:
                tallies["protocol"] += 1
            else:
                tallies["ok"] += 1
                if response.degraded:
                    tallies["degraded"] += 1
                distinct_answers.add(
                    tuple(
                        (label, tuple(sorted(map(tuple, rows))))
                        for label, rows in sorted(response.answers.items())
                    )
                )
    print(f"requests: {arguments.requests}")
    for outcome, count in tallies.items():
        if count:
            print(f"  {outcome}: {count}")
    injected = plan.injected()
    print("injected: " + (" ".join(f"{kind}={count}" for kind, count in sorted(injected.items())) or "none"))
    if len(distinct_answers) > 1:
        print(f"FAIL: {len(distinct_answers)} distinct answer sets across successful requests")
        return 1
    if tallies["ok"]:
        print("all successful answers identical")
    return 0


def _print_flight_recorder(snapshot: dict) -> None:
    """Text rendering of a ``/debug/flightrecorder`` snapshot."""
    print(
        f"flight recorder [{snapshot.get('schema', '?')}]: "
        f"{snapshot.get('captured', 0)} captured of {snapshot.get('observed', 0)} observed "
        f"(ring capacity {snapshot.get('capacity', '?')}, "
        f"slow threshold {snapshot.get('slow_threshold_ms', '?')}ms)"
    )
    entries = snapshot.get("entries") or []
    if not entries:
        print("(no slow or failed requests captured)")
        return
    rows = []
    for entry in entries:
        error = entry.get("error")
        rows.append(
            [
                entry.get("path", "?"),
                entry.get("status", "?"),
                f"{entry.get('duration_ms', 0.0):.1f}",
                entry.get("database") or "-",
                (entry.get("query") or "-")[:40],
                error.get("kind", "error") if isinstance(error, dict) else (error or "-"),
                len(entry.get("events") or []),
            ]
        )
    print(format_table(["path", "status", "ms", "database", "query", "error", "events"], rows))
    slowest = max(entries, key=lambda entry: entry.get("duration_ms", 0.0))
    print(
        f"slowest: {slowest.get('path')} {slowest.get('duration_ms', 0.0):.1f}ms — "
        "export its timeline with `repro trace export` on the --json dump"
    )


def _print_metrics(metrics) -> None:
    """Text rendering of a MetricsResponse: counters, gauges, percentiles."""
    print(f"uptime: {metrics.uptime_seconds:.1f}s")
    for label, entries in (("counters", metrics.counters), ("gauges", metrics.gauges)):
        if entries:
            print(f"{label}:")
            for name, value in sorted(entries.items()):
                print(f"  {name} = {value}")
    if metrics.histograms:
        rows = []
        for name, histogram in sorted(metrics.histograms.items()):
            rows.append(
                [
                    name,
                    histogram.get("count", 0),
                    _quantile_ms(histogram, "p50"),
                    _quantile_ms(histogram, "p95"),
                    _quantile_ms(histogram, "p99"),
                ]
            )
        print(format_table(["latency", "count", "p50_ms", "p95_ms", "p99_ms"], rows))


def _quantile_ms(histogram, key: str) -> str:
    value = histogram.get(key)
    return f"{value * 1000:.3f}" if isinstance(value, (int, float)) else "-"


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        if arguments.command == "info":
            return _command_info(arguments)
        if arguments.command == "query":
            return _command_query(arguments)
        if arguments.command == "classify":
            return _command_classify(arguments)
        if arguments.command == "serve":
            return _command_serve(arguments)
        if arguments.command == "top":
            return _command_top(arguments)
        if arguments.command == "trace":
            return _command_trace(arguments)
        if arguments.command == "cluster":
            return _command_cluster(arguments)
        if arguments.command == "client":
            return _command_client(arguments)
        if arguments.command == "chaos":
            return _command_chaos(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {arguments.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":
    raise SystemExit(main())
