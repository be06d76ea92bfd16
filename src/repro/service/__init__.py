"""The concurrent query-serving subsystem.

Loosely coupled layers, each usable on its own:

* :mod:`repro.service.engine` — :class:`QueryService`: named immutable
  database snapshots with precomputed ``Ph2`` storage and result caching;
* :mod:`repro.service.prepared` — prepared statements (parse + plan once,
  execute per binding) shared with the cluster router;
* :mod:`repro.service.cache` — the thread-safe LRU underneath;
* :mod:`repro.service.batch` — deduplicated concurrent batch evaluation
  (ad-hoc request batches and prepared parameter sweeps);
* :mod:`repro.service.protocol` — versioned JSON request/response messages
  with the v2 session/streaming API (also the CLI's ``--json`` serializer);
* :mod:`repro.service.cursors` — server-side cursors for chunked streaming;
* :mod:`repro.service.server` — the stdlib HTTP front-end;
* :mod:`repro.service.client` — the keep-alive client with typed remote
  errors and :class:`PreparedHandle` streaming.
"""

from repro.service.batch import BatchEvaluator, PreparedBatchEvaluator, evaluate_batch
from repro.service.cache import CacheStats, LRUCache
from repro.service.client import PreparedHandle, ServiceClient
from repro.service.cursors import CursorStore
from repro.service.engine import QueryService, RegisteredDatabase
from repro.service.prepared import PreparedStatement, StatementRegistry
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    BatchRequest,
    BatchResponse,
    ClassifyRequest,
    ClassifyResponse,
    CursorResponse,
    DatabasesResponse,
    ErrorResponse,
    ExecuteManyRequest,
    ExecuteRequest,
    FetchRequest,
    HealthResponse,
    InfoResponse,
    PageResponse,
    PrepareRequest,
    PrepareResponse,
    QueryRequest,
    QueryResponse,
    StatsResponse,
    dump_wire,
    parse_wire,
    to_wire,
)
from repro.service.server import ServiceHTTPServer, make_server, running_server, serve

__all__ = [
    "QueryService",
    "RegisteredDatabase",
    "PreparedStatement",
    "StatementRegistry",
    "LRUCache",
    "CacheStats",
    "BatchEvaluator",
    "PreparedBatchEvaluator",
    "evaluate_batch",
    "ServiceClient",
    "PreparedHandle",
    "CursorStore",
    "ServiceHTTPServer",
    "make_server",
    "running_server",
    "serve",
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "QueryRequest",
    "QueryResponse",
    "ClassifyRequest",
    "ClassifyResponse",
    "InfoResponse",
    "HealthResponse",
    "DatabasesResponse",
    "StatsResponse",
    "BatchRequest",
    "BatchResponse",
    "ErrorResponse",
    "PrepareRequest",
    "PrepareResponse",
    "ExecuteRequest",
    "ExecuteManyRequest",
    "CursorResponse",
    "FetchRequest",
    "PageResponse",
    "to_wire",
    "parse_wire",
    "dump_wire",
]
