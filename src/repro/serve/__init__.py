"""Concurrent query serving: cache, admission control, metrics, HTTP API.

The serving layer the ROADMAP's north star asks for: a stdlib-only HTTP
query service over the existing :class:`~repro.query.engine.SearchEngine`,
:class:`~repro.ranking.precompute.PrecomputedRanker` and the
explain/reformulate modules.  Start one with::

    from repro.serve import QueryService, ServeConfig, create_server

    service = QueryService(ServeConfig(datasets=("dblp_tiny",)))
    server = create_server(service, "127.0.0.1", 8080)
    server.serve_forever()

or from the command line: ``repro serve dblp_tiny --port 8080``.  The
prefork tier (``repro serve --workers N --store DIR``) lives in
:mod:`repro.serve.cluster`: worker processes share one listener and mmap the
same :mod:`repro.store` generation, swapped atomically on rebuilds.
"""

from repro.serve.cache import CacheStats, ResultCache
from repro.serve.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    WorkerStatus,
)
from repro.serve.http_server import (
    QueryHTTPServer,
    create_server,
    serve_forever,
    serve_until_shutdown,
)
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.service import (
    Deadline,
    DeadlineExceededError,
    DatasetRuntime,
    QueryService,
    ServeConfig,
)

__all__ = [
    "CacheStats",
    "ClusterConfig",
    "ClusterSupervisor",
    "Counter",
    "DatasetRuntime",
    "Deadline",
    "DeadlineExceededError",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryHTTPServer",
    "QueryService",
    "ResultCache",
    "ServeConfig",
    "WorkerStatus",
    "create_server",
    "serve_forever",
    "serve_until_shutdown",
]
