"""Cluster observability: stitched scatter traces, aggregated metrics, tolerance.

The trace test runs against real worker *processes* so the spans genuinely
cross HTTP hops; the aggregation and forward-compatibility tests use
in-process backends where duck-typing lets us simulate newer workers.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster import start_cluster
from repro.cluster.deploy import local_router
from repro.observability import tracing
from repro.service.protocol import QueryRequest
from repro.workloads.generators import employee_database

SCATTER_QUERY = "(x, y) . EMP_DEPT(x, y)"


@pytest.fixture(scope="module")
def employee():
    return employee_database(60, seed=13)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cluster-obs-store")


@pytest.fixture(scope="module")
def cluster(employee, store_dir):
    with start_cluster(
        {"emp": employee}, store_dir, shards=2, replicas=2, replication_threshold=32
    ) as running:
        yield running


class TestScatterTracing:
    def test_scatter_union_yields_one_stitched_trace_tree(self, cluster):
        """Satellite: worker spans across both shards carry the edge trace id."""
        with tracing.trace("edge") as active:
            response = cluster.router.execute(QueryRequest("emp", SCATTER_QUERY))
        assert response.answers["approximate"]  # the query really scattered data back
        # One trace: every span — edge, router, RPC, worker — shares its id.
        assert {span.trace_id for span in active.spans} == {active.trace_id}
        names = [span.name for span in active.spans]
        assert "route scatter" in names
        assert names.count("scatter shard 0") == 1
        assert names.count("scatter shard 1") == 1
        # Both worker processes contributed their server-side spans.
        worker_spans = [span for span in active.spans if span.name == "POST /query"]
        assert len(worker_spans) >= 2
        # The spans stitch into a single tree under the edge span: each
        # worker span's parent is this trace's client-side RPC span.
        by_id = {span.span_id: span for span in active.spans}
        for span in worker_spans:
            assert by_id[span.parent_id].name == "rpc POST /query"
        shard_spans = [span for span in active.spans if span.name.startswith("scatter shard")]
        assert {by_id[span.parent_id].name for span in shard_spans} == {"route scatter"}
        (root,) = active.tree()
        assert root["span"].name == "edge"
        rendered = tracing.render_trace(active)
        assert "POST /query" in rendered and active.trace_id in rendered

    def test_untraced_cluster_execution_records_nothing(self, cluster):
        response = cluster.router.execute(QueryRequest("emp", "(x) . EMP_SAL(x, 'mid')"))
        assert response.answers is not None
        assert tracing.current_trace() is None


class TestClusterMetrics:
    def test_router_aggregates_worker_process_metrics(self, cluster):
        cluster.router.execute(QueryRequest("emp", SCATTER_QUERY))
        metrics = cluster.router.metrics()
        assert metrics.counters["cluster.workers_reporting"] == 2
        # Worker-side counters fold into the cluster view: the scatter hit
        # both shard processes' /query route at least once.
        assert metrics.counters["query.requests"] >= 2
        histogram = metrics.histograms["http./query"]
        assert histogram["count"] >= 2
        assert 0.0 <= histogram["p50"] <= histogram["p95"] <= histogram["p99"]
        # The router's own route timings join the same snapshot.
        assert metrics.histograms["route.scatter"]["count"] >= 1

    def test_local_router_aggregates_all_in_process_workers(self, employee):
        router = local_router({"emp": employee}, shards=3, replicas=2, replication_threshold=32)
        for text in (SCATTER_QUERY, "(x) . EMP_SAL(x, 'mid')"):
            router.execute(QueryRequest("emp", text))
        metrics = router.metrics()
        assert metrics.counters["cluster.workers_reporting"] == 3
        assert metrics.counters["query.requests"] >= 3
        router.close()


class _FutureBackend:
    """A worker running newer code: extra stats/metrics fields, odd shapes."""

    def __init__(self, inner):
        self.inner = inner

    def execute(self, request):
        return self.inner.execute(request)

    def ping(self):
        return True

    def stats(self):
        return SimpleNamespace(
            databases="not-a-list",
            answer_cache={"hits": 1, "future_detail": "warm"},
            plan_cache=None,
            feedback={"quantum_replans": 3, "note": "experimental"},
            prepared={"executions": 2},
            shiny_new_section={"ignored": True},
        )

    def metrics(self):
        return SimpleNamespace(
            counters={"query.requests": 1, "future_float_counter": 1.5},
            gauges={"future_gauge": "big"},
            histograms={"latency": "not a mapping"},
        )


class _MuteBackend:
    """A worker predating /metrics: no ``metrics`` attribute at all."""

    def __init__(self, inner):
        self.inner = inner

    def execute(self, request):
        return self.inner.execute(request)

    def ping(self):
        return True

    def stats(self):
        return self.inner.stats()


class TestForwardCompatibility:
    def _wrapped_router(self, employee, wrapper):
        return local_router(
            {"emp": employee},
            shards=2,
            replicas=2,
            replication_threshold=32,
            backend_wrapper=lambda backend, index: wrapper(backend),
        )

    def test_stats_tolerates_unknown_and_reshaped_worker_fields(self, employee):
        """Satellite: a newer worker's stats never take cluster stats() down."""
        router = self._wrapped_router(employee, _FutureBackend)
        stats = router.stats()
        for index in ("0", "1"):
            summary = stats.cluster["workers"][index]
            assert summary["databases"] == []  # reshaped field degrades to unknown
            assert summary["plan_cache"] == {}  # None section degrades to empty
            assert summary["answer_cache"] == {"hits": 1, "future_detail": "warm"}
            assert summary["protocol_versions"] == []
        # Integer counters still aggregate; a section this router does not
        # know (an older worker's "feedback") is dropped.
        assert stats.prepared["executions"] == 4
        assert "feedback" not in stats.cluster["workers"]["0"]
        router.close()

    def test_metrics_tolerates_malformed_worker_snapshots(self, employee):
        router = self._wrapped_router(employee, _FutureBackend)
        metrics = router.metrics()
        assert metrics.counters["cluster.workers_reporting"] == 2
        assert metrics.counters["query.requests"] == 2
        assert "future_float_counter" not in metrics.counters
        assert "future_gauge" not in metrics.gauges
        assert "latency" not in metrics.histograms
        router.close()

    def test_metrics_skips_workers_without_the_endpoint(self, employee):
        router = self._wrapped_router(employee, _MuteBackend)
        response = router.execute(QueryRequest("emp", SCATTER_QUERY))
        assert response.answers is not None
        metrics = router.metrics()
        assert metrics.counters["cluster.workers_reporting"] == 0
        # The router's own telemetry still serves.
        assert metrics.histograms["route.scatter"]["count"] >= 1
        router.close()
