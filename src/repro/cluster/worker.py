"""One query-service worker per OS process.

A worker is the existing single-process serving stack, unchanged, behind a
process boundary: it boots a :class:`~repro.service.engine.QueryService`,
loads its assigned shard snapshots **from the persistent store** (warm boot:
data and optimizer statistics come off disk, nothing is re-partitioned), and
serves the versioned JSON protocol over HTTP on an ephemeral loopback port.
The parent learns the bound port over a one-shot ``multiprocessing`` pipe —
the only parent/child channel besides the protocol itself.

Workers are deliberately dumb: they know nothing about the partition layout,
routing or merging.  A worker cannot tell a shard snapshot from a full copy;
it just serves named immutable snapshots.  All cluster semantics live in
:mod:`repro.cluster.partition` (what is sound) and
:mod:`repro.cluster.router` (who is asked), which keeps the soundness
argument in one reviewable place.  The same holds for the protocol v2
session API: templates are prepared and decomposed *at the router*, workers
only ever see bound ad-hoc requests — but each worker's full server stack
(``/prepare``, ``/execute``, ``/fetch``) is live for clients that talk to a
worker directly, and every worker advertises its supported protocol
versions in the ``/health`` responses the router's health checks read.

The default start method prefers ``fork`` (fast, keeps test suites quick)
and falls back to ``spawn`` where fork is unavailable; override with the
``REPRO_CLUSTER_START_METHOD`` environment variable.  Everything a spawned
child needs is picklable, so both methods work.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field

from repro.errors import ClusterError

__all__ = [
    "START_METHOD_ENV",
    "DEFAULT_BOOT_TIMEOUT_SECONDS",
    "WorkerAssignment",
    "WorkerSpec",
    "WorkerHandle",
    "worker_main",
]

START_METHOD_ENV = "REPRO_CLUSTER_START_METHOD"
DEFAULT_BOOT_TIMEOUT_SECONDS = 60.0


def _context() -> multiprocessing.context.BaseContext:
    method = os.environ.get(START_METHOD_ENV)
    if not method:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


@dataclass(frozen=True)
class WorkerAssignment:
    """One snapshot a worker must serve: store name → registered name."""

    snapshot_name: str
    register_name: str


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to boot one worker process (picklable)."""

    index: int
    store_dir: str
    assignments: tuple[WorkerAssignment, ...]
    host: str = "127.0.0.1"
    answer_cache_capacity: int | None = None
    plan_cache_capacity: int | None = None

    def service_kwargs(self) -> dict:
        kwargs: dict = {}
        if self.answer_cache_capacity is not None:
            kwargs["answer_cache_capacity"] = self.answer_cache_capacity
        if self.plan_cache_capacity is not None:
            kwargs["plan_cache_capacity"] = self.plan_cache_capacity
        return kwargs


def worker_main(spec: WorkerSpec, channel) -> None:
    """Child-process entry point: load snapshots, bind, report, serve forever.

    Imports happen here rather than at module top level so a ``spawn``-ed
    child (which re-imports this module) pays them once, and so the parent's
    import of :mod:`repro.cluster` stays light.

    SIGTERM (the deployer's ``stop()``) triggers a graceful exit: in-flight
    requests drain before the socket closes.
    """
    import signal
    import threading

    from repro.cluster.store import SnapshotStore
    from repro.service.engine import QueryService
    from repro.service.server import make_server

    try:
        store = SnapshotStore(spec.store_dir)
        service = QueryService(**spec.service_kwargs())
        for assignment in spec.assignments:
            service.register_from_store(
                store, assignment.snapshot_name, as_name=assignment.register_name
            )
        server = make_server(service, host=spec.host, port=0, quiet=True)
    except Exception as error:  # noqa: BLE001 - the parent re-raises with context
        channel.send(("error", f"{type(error).__name__}: {error}"))
        channel.close()
        return

    def _graceful_stop(signum, frame) -> None:
        # shutdown() must not run on the thread inside serve_forever (it
        # would wait on itself); hand it to a helper thread and return.
        threading.Thread(target=server.shutdown, name="repro-worker-stop", daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful_stop)
    channel.send(("ready", server.server_address[1]))
    channel.close()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown only
        pass
    finally:
        # serve_forever has stopped accepting, but handler threads may still
        # be mid-request: drain them (bounded — a request's own deadline
        # already caps its runtime) before closing the socket, so a rolling
        # restart under load finishes admitted work instead of surfacing
        # spurious transport errors to the router.
        server.drain()
        server.server_close()


@dataclass
class WorkerHandle:
    """The parent's view of one worker: process, address, liveness flag.

    ``alive`` is the router's *belief*, set pessimistically on transport
    failures and refreshed by health checks; ``running()`` asks the OS.
    """

    spec: WorkerSpec
    process: multiprocessing.process.BaseProcess | None = None
    port: int | None = None
    alive: bool = field(default=False)

    def start(self, timeout: float = DEFAULT_BOOT_TIMEOUT_SECONDS) -> "WorkerHandle":
        """Spawn the process and wait for its bound port (or boot error)."""
        if self.process is not None:
            raise ClusterError(f"worker {self.spec.index} is already started")
        context = _context()
        parent_channel, child_channel = context.Pipe(duplex=False)
        process = context.Process(
            target=worker_main,
            args=(self.spec, child_channel),
            name=f"repro-cluster-worker-{self.spec.index}",
            daemon=True,
        )
        process.start()
        child_channel.close()
        try:
            try:
                if not parent_channel.poll(timeout):
                    raise ClusterError(
                        f"worker {self.spec.index} did not report a port within {timeout} seconds"
                    )
                kind, payload = parent_channel.recv()
            except (EOFError, OSError) as error:
                raise ClusterError(
                    f"worker {self.spec.index} died during boot: {error or 'channel closed'}"
                ) from None
            finally:
                parent_channel.close()
            if kind != "ready":
                raise ClusterError(f"worker {self.spec.index} failed to boot: {payload}")
        except ClusterError:
            # A slow-booting child would otherwise finish booting and serve
            # forever as an orphan; every failed start must reap its process.
            if process.is_alive():
                process.terminate()
            process.join(timeout=5)
            raise
        self.process = process
        self.port = int(payload)
        self.alive = True
        return self

    @property
    def base_url(self) -> str:
        if self.port is None:
            raise ClusterError(f"worker {self.spec.index} has no bound port (not started?)")
        return f"http://{self.spec.host}:{self.port}"

    def running(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate gracefully (SIGTERM: drain, then exit; idempotent).

        Escalates to SIGKILL if the graceful path wedges.
        """
        process = self.process
        if process is None:
            return
        self.alive = False
        if process.is_alive():
            process.terminate()
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - stuck process safety net
                process.kill()
                process.join(timeout=timeout)

    def kill(self, timeout: float = 5.0) -> None:
        """Hard-kill (SIGKILL): simulates a crash — nothing persists, by design.

        Failover drills use this; a graceful SIGTERM would drain connections,
        which is precisely what a crash never does.
        """
        process = self.process
        if process is None:
            return
        self.alive = False
        if process.is_alive():
            process.kill()
            process.join(timeout=timeout)
