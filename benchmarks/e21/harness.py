"""E21's moving parts: the server subprocess, the closed-loop driver, the oracle.

Nothing here knows which workload is running; :mod:`workloads` generates the
requests and :mod:`e21` decides what to do with the measurements.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.approx.evaluator import ApproximateEvaluator
from repro.approx.rewrite import rewrite_query
from repro.errors import ReproError
from repro.logic.parser import parse_query
from repro.logical.database import CWDatabase
from repro.logical.ph import ph2
from repro.physical.algebra import execute
from repro.physical.compiler import compile_query
from repro.physical.csvio import save_cw_database
from repro.service.client import ServiceClient
from repro.service.protocol import QueryRequest, answers_to_wire

from workloads import (
    DATABASE,
    PAGE_SIZE,
    SHAPES,
    SMALL_DATABASE,
    Op,
    Workload,
    build_database,
    build_small_database,
)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Everything a run writes lands here, inside the checkout (see .gitignore).
WORK = ROOT / ".e21_work"

BOOT_TIMEOUT_SECONDS = 120.0
STOP_TIMEOUT_SECONDS = 15.0
#: The measured window is cut into this many segments of equal length; each
#: timing metric is recorded per segment beside its whole-window value.
SEGMENTS = 5
#: How many of a run's first responses the oracle re-evaluates.
VERIFY_SAMPLE = 100
#: The request whose answer ends set-up.  Employee i is dealt to department
#: i mod 60, so the answer is known without evaluating anything; no workload
#: sends this text, so afterwards it is a guaranteed answer-cache hit.
FIRST_REQUEST = QueryRequest(DATABASE, "(x) . EMP_DEPT('emp0', x)", "approx", "auto")
FIRST_ANSWER = (("dept0",),)

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# The server subprocess ---------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name (state is field 0)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _group_pids(pgid: int) -> list[int]:
    """Every live process of process group *pgid* (the server and its workers)."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[2]) == pgid and fields[0] != "Z":
                pids.append(int(entry))
    return pids


def pin_to_one_cpu() -> None:
    """Confine this process, and every server it starts, to one CPU.

    With one closed-loop client the work is serial anyway: the client waits
    while the server works.  Left to the scheduler, client and server share a
    CPU in one run and sit on two in the next, and a wake-up across CPUs
    makes a sub-millisecond round trip 30 % slower; two sets of runs then
    differ by the scheduler's mood.  What is lost: the two workers of a
    scatter cannot overlap, and a server that learns to use a second CPU
    will not show it here.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class ServerProcess:
    """``python -m repro.cli serve ...`` in its own process group.

    Default configuration: no ``REPRO_*`` variable reaches the server, and
    the only options are the port, the databases and (cluster) the shard
    count with a store directory inside the checkout.  Output goes to files
    — an unread pipe fills after ~900 request-log lines and wedges the
    server.  Stopping sends SIGINT, which is the one signal on which the CLI
    also stops its cluster workers.
    """

    def __init__(self, workdir: Path, databases: dict[str, Path], shards: int = 1) -> None:
        self.workdir = workdir
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.command = [sys.executable, "-m", "repro.cli", "serve"]
        self.command += [f"{name}={directory}" for name, directory in databases.items()]
        self.command += ["--port", str(self.port)]
        if shards > 1:
            self.command += ["--shards", str(shards), "--store", str(workdir / "store")]
        self.environment = {
            key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
        }
        self.environment["PYTHONPATH"] = str(SRC)
        self.environment["TMPDIR"] = str(workdir)
        self.base_url = f"http://127.0.0.1:{self.port}"
        self.process: subprocess.Popen | None = None
        self.pids: list[int] = []

    def start(self) -> ServiceClient:
        """Boot and wait for ``/health``; returns a client on one connection."""
        with open(self.workdir / "server.out", "w") as out, open(self.workdir / "server.err", "w") as err:
            self.process = subprocess.Popen(
                self.command,
                env=self.environment,
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
                cwd=self.workdir,
            )
        client = ServiceClient(self.base_url)
        deadline = time.monotonic() + BOOT_TIMEOUT_SECONDS
        while True:
            try:
                client.health()
                break
            except ReproError:
                if self.process.poll() is not None:
                    raise RuntimeError(f"server exited during boot: {self.tail_of_log()}") from None
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError(f"server did not answer /health in {BOOT_TIMEOUT_SECONDS} s") from None
                time.sleep(0.01)
        self.pids = _group_pids(self.process.pid)
        return client

    def tail_of_log(self) -> str:
        try:
            return (self.workdir / "server.err").read_text()[-2000:]
        except OSError:
            return "(no log)"

    def cpu_seconds(self) -> float:
        """utime + stime of every server process so far."""
        ticks = 0
        for pid in self.pids:
            fields = _stat_fields(pid)
            if fields is not None:
                ticks += int(fields[11]) + int(fields[12])
        return ticks / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server processes."""
        total_kb = 0
        for pid in self.pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Stop the server and every worker, and wait until all have ended."""
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(STOP_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                pass
        # Whatever is left of the group (a wedged server, orphaned workers).
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_SECONDS
        while _group_pids(process.pid) and time.monotonic() < deadline:
            time.sleep(0.02)


def environment_stanza(server: ServerProcess) -> dict:
    """Where and how the numbers were taken, so mixed-mode artifacts cannot recur."""
    command = " ".join(server.command).replace(sys.executable, "python")
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "server_command": command.replace(str(server.workdir), "<work>").replace(str(server.port), "<port>"),
        "server_environment": {
            key: value
            for key, value in sorted(server.environment.items())
            if key.startswith(("PYTHON", "REPRO_"))
        },
    }


# Set-up ------------------------------------------------------------------------


def run_directory(name: str) -> Path:
    """A scratch directory for one run of workload *name*; the caller removes it."""
    return WORK / f"{name}-{os.getpid()}"


_NO_SPAN = contextlib.nullcontext()


def no_span(name: str):
    """The span of an untraced call: nothing."""
    return _NO_SPAN


@dataclass
class Deployment:
    """A booted server with its client, prepared handles and set-up time."""

    server: ServerProcess
    client: ServiceClient
    handles: dict = field(default_factory=dict)
    setup_seconds: float = 0.0

    def send(self, op: Op, span=no_span, client: ServiceClient | None = None, profile: bool = False):
        """Send one request the way its kind says; returns ``(answer rows, response)``.

        *span* wraps every client call (the traced run passes its recorder),
        *client* replaces the deployment's own and *profile* asks for an
        operator profile (the observed pass).  A stream is timed to its last
        page and has no single response.
        """
        client = client or self.client
        if op.kind == "query":
            with span("client.call"):
                response = client.execute(QueryRequest(DATABASE, op.text, "approx", "auto", profile=profile))
            return response.answers["approximate"], response
        statement_id = self.handles[op.shape].statement_id
        if op.kind == "execute":
            with span("client.call"):
                response = client.execute_prepared(statement_id, op.params)
            return response.answers["approximate"], response
        with span("client.open_cursor"):
            cursor = client.open_cursor(statement_id, op.params, page_size=PAGE_SIZE)
        rows: list = []
        for page in range(cursor.pages):
            with span("client.fetch_page"):
                rows.extend(client.fetch_page(cursor.cursor_id, page).rows)
        return tuple(rows), None

    def snapshot(self) -> dict:
        """Server-side counters, read between (never inside) timed requests."""
        stats = self.client.stats()
        answer = dict(stats.answer_cache)
        plan = dict(stats.plan_cache)
        cluster = dict(stats.cluster or {})
        if cluster:
            # The router keeps no answer cache; the workers' caches are the
            # ones a repeated text would hit.
            answer = _sum_counters(w.get("answer_cache", {}) for w in cluster.get("workers", {}).values())
            plan = _sum_counters(w.get("plan_cache", {}) for w in cluster.get("workers", {}).values())
        return {
            "answer_cache": answer,
            "plan_cache": plan,
            "prepared": dict(stats.prepared),
            "routing": dict(cluster.get("routing", {})),
            "failovers": cluster.get("failovers", 0),
        }

    def close(self) -> None:
        self.client.close()
        self.server.stop()


def _sum_counters(sections) -> dict:
    total: dict[str, int] = {}
    for section in sections:
        for name, value in section.items():
            if isinstance(value, int):
                total[name] = total.get(name, 0) + value
    return total


def hit_share(before: dict, after: dict) -> float:
    """Cache hits / lookups between two counter sections (0 when untouched)."""
    hits = after.get("hits", 0) - before.get("hits", 0)
    misses = after.get("misses", 0) - before.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def routing_share(before: dict, after: dict, kind: str) -> float:
    """Share of the router's decisions between two ``cluster.routing`` readings that were *kind*."""
    routed = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    total = sum(routed.values())
    return routed.get(kind, 0) / total if total else 0.0


def set_up(workdir: Path, shards: int, prepared: tuple[str, ...], with_small: bool) -> Deployment:
    """Everything a user waits for before the first answer, timed.

    Generate and save the database, boot the server (router and workers for
    a cluster), prepare the templates, and get one correct answer.
    """
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    directories = {DATABASE: workdir / DATABASE}
    save_cw_database(build_database(), directories[DATABASE])
    if with_small:
        directories[SMALL_DATABASE] = workdir / SMALL_DATABASE
        save_cw_database(build_small_database(), directories[SMALL_DATABASE])
    server = ServerProcess(workdir, directories, shards)
    try:
        client = server.start()
        handles = {
            shape: client.prepare(DATABASE, SHAPES[shape].template, "approx", "auto") for shape in prepared
        }
        first = client.execute(FIRST_REQUEST)
        if first.answers["approximate"] != FIRST_ANSWER:
            raise RuntimeError(f"first answer is wrong: {first.answers!r}")
    except BaseException:
        server.stop()
        raise
    return Deployment(server, client, handles, time.perf_counter() - started)


# The closed loop ---------------------------------------------------------------


@dataclass
class DriveResult:
    """What one closed-loop run observed."""

    samples: list[tuple[float, float]]  # (start, latency) of every completed request of the window
    attempted: int
    failed: int
    retained: dict[int, tuple]
    before: dict
    after: dict
    loadgen_cpu_share: float
    #: (time, server CPU seconds so far, requests done) at every segment boundary.
    marks: list[tuple[float, float, int]]
    peak_rss_mb: float


def drive(deployment: Deployment, workload: Workload, warmup: float, seconds: float, rss_after: int) -> DriveResult:
    """One client, one keep-alive connection, next request after the reply.

    Sends the priming requests once, warms up for *warmup* seconds, then
    measures for *seconds* seconds.  A request that fails (refused, timed
    out, typed error) is counted and contributes no latency.  The answers of
    the first :data:`VERIFY_SAMPLE` requests are kept for the oracle (sent
    after the window, if it was too short for them, so that the digest of one
    seed always covers the same requests).  The server's peak memory is read
    when *rss_after* requests of the window are done — also after the window,
    if it takes that long — because the answer cache grows with every miss: a
    reading at a fixed *time* would be higher the faster the server is.
    """
    send = deployment.send
    clock = time.perf_counter
    ops = workload.ops
    retained: dict[int, tuple] = {}
    failed = 0
    for op in workload.prime:
        send(op)

    def request(index: int) -> bool:
        """Send request *index* untimed; whether it succeeded."""
        if index == len(ops):
            workload.extend()
        try:
            rows = send(ops[index])[0]
        except ReproError:
            return False
        if index < VERIFY_SAMPLE:
            retained[index] = rows
        return True

    index = 0
    deadline = clock() + warmup
    while clock() < deadline:
        failed += not request(index)
        index += 1
    before = deployment.snapshot()
    samples: list[tuple[float, float]] = []
    cpu_seconds = deployment.server.cpu_seconds
    peak_rss = None
    segment = seconds / SEGMENTS
    gc.collect()
    gc.disable()
    own_cpu = time.process_time()
    try:
        first = index
        opened = clock()
        marks = [(opened, cpu_seconds(), 0)]
        due = 1  # the segment boundary that comes next
        while True:
            started = clock()
            if started >= opened + due * segment:
                marks.append((started, cpu_seconds(), index - first))
                if started >= opened + seconds:
                    break
                due = int((started - opened) / segment) + 1
                started = clock()
            if index == len(ops):
                workload.extend()
            try:
                rows = send(ops[index])[0]
            except ReproError:
                failed += 1
            else:
                samples.append((started, clock() - started))
                if index < VERIFY_SAMPLE:
                    retained[index] = rows
                if len(samples) == rss_after:
                    peak_rss = deployment.server.peak_rss_mb()
            index += 1
    finally:
        gc.enable()
    own_cpu = time.process_time() - own_cpu
    if not samples:
        raise RuntimeError("no request completed inside the measured window")
    after = deployment.snapshot()
    # A slower machine gets to these two request counts after the window.
    done = len(samples)
    while done < rss_after and not failed:
        failed += not request(index)
        index += 1
        done += 1
    if peak_rss is None:
        peak_rss = deployment.server.peak_rss_mb()
    while index < VERIFY_SAMPLE and not failed:
        failed += not request(index)
        index += 1
    return DriveResult(
        samples, index, failed, retained, before, after, own_cpu / (marks[-1][0] - marks[0][0]), marks, peak_rss
    )


def percentile(ordered: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(quantile * len(ordered)) - 1))]


def window_statistics(
    samples: list[tuple[float, float]], marks: list[tuple[float, float, int]]
) -> dict[str, float] | None:
    """p50, p95 (ms), throughput (req/s) and server CPU (ms/request) between the first and last of *marks*.

    ``None`` when no request completed in between.
    """
    latencies = sorted(latency for start, latency in samples if marks[0][0] <= start < marks[-1][0])
    if not latencies:
        return None
    done = marks[-1][2] - marks[0][2]
    return {
        "latency_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "latency_p95_ms": 1000.0 * percentile(latencies, 0.95),
        "throughput_rps": len(latencies) / (marks[-1][0] - marks[0][0]),
        "server_cpu_ms_per_request": 1000.0 * (marks[-1][1] - marks[0][1]) / done,
    }


def iqr_share(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, __, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


# The oracle --------------------------------------------------------------------


def canonical(rows) -> bytes:
    """Canonical answer bytes: the wire's sorted list of string lists, compact JSON."""
    return json.dumps([list(row) for row in rows], separators=(",", ":")).encode()


class Oracle:
    """Independent in-process re-evaluation of a request's answer.

    Shares nothing with the serving path beyond the parser and ``Ph2``: no
    cache, no optimizer, no batch executor, no wire.  ``"tarski"`` shapes use
    the direct Tarskian evaluator on ``Q-hat``; ``"naive"`` shapes run the
    unoptimized compiled plan of ``Q-hat`` on the tuple-at-a-time executor.
    """

    def __init__(self, database: CWDatabase) -> None:
        self.storage = ph2(database)
        self.tarski = ApproximateEvaluator(engine="tarski")

    def answer(self, op: Op) -> bytes:
        query = parse_query(op.text)
        if SHAPES[op.shape].oracle == "tarski":
            rows = self.tarski.answers_on_storage(self.storage, query)
        else:
            plan = compile_query(rewrite_query(query), self.storage)
            rows = execute(plan, self.storage, vectorize=False).rows
        return canonical(answers_to_wire(rows))


def verify(workload: Workload, retained: dict[int, tuple], database: CWDatabase) -> tuple[int, int, str]:
    """Compare retained answers with the oracle byte for byte.

    Returns ``(verified, wrong, digest)``; the digest covers every (request
    -> answer bytes) pair of the sample, so two runs of one seed can be
    checked for byte identity.
    """
    oracle = Oracle(database)
    digest = hashlib.sha256()
    wrong = 0
    for index in sorted(retained):
        op = workload.ops[index]
        got = canonical(retained[index])
        if got != oracle.answer(op):
            wrong += 1
            print(f"e21: WRONG ANSWER for {op.kind} {op.text!r}", file=sys.stderr)
        digest.update(f"{op.kind}\0{op.text}\0".encode())
        digest.update(got)
        digest.update(b"\n")
    return len(retained), wrong, digest.hexdigest()


def both_check(client: ServiceClient) -> tuple[int, int]:
    """~20 negation queries with ``method="both"`` on the 12-employee database.

    The exact (Theorem 1) route is exponential, hence the tiny database;
    the approximation must return a subset of the exact certain answers.
    Returns ``(checked, violations)``.
    """
    small = build_small_database()
    employees = sorted({row[0] for row in small.facts_for("EMP_DEPT")})
    managers = sorted({row[1] for row in small.facts_for("DEPT_MGR")})
    departments = sorted({row[0] for row in small.facts_for("DEPT_MGR")})
    texts = [f"(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, '{name}')" for name in employees + managers]
    texts += [f"(m) . ~DEPT_MGR('{name}', m)" for name in departments]
    texts += [f"(x) . ~EMP_SAL(x, '{band}')" for band in ("low", "mid", "high")]
    violations = 0
    for text in texts:
        response = client.execute(QueryRequest(SMALL_DATABASE, text, "both", "auto"))
        if not set(response.answers["approximate"]) <= set(response.answers["exact"]):
            violations += 1
            print(f"e21: UNSOUND approximation for {text!r}", file=sys.stderr)
    return len(texts), violations
