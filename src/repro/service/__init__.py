"""Batched MST query service.

The serving path of the reproduction: many queries, one process,
amortized work.  See :mod:`~repro.service.engine` for the three-level
pipeline (result cache → build cache → worker pool with in-flight
dedup), :mod:`~repro.service.query` for the query model and cache-key
normalization, and :mod:`~repro.service.batch` for the NDJSON batch
front end used by ``repro-mst serve`` and ``repro-mst sweep``.

Failures leave evidence: the engine arms an always-on flight recorder
(:mod:`~repro.obs.recorder`) by default, which captures self-contained
postmortem bundles on typed error outcomes, SLO burns, breaker opens,
and serve-path crashes — inspect them with ``repro-mst postmortem``
and re-execute them deterministically with ``repro-mst replay``.
"""

from .admin import AdminServer, render_prometheus
from .batch import (
    BatchSummary,
    parse_batch_lines,
    run_batch_lines,
    summarize,
    sweep_queries,
)
from .cache import LRUCache
from .engine import MSTService, ServiceConfig, Ticket, execute_query
from .outcome import QueryOutcome, batch_exit_code, classify_error
from .query import Query, QueryError, result_key

__all__ = [
    "AdminServer",
    "BatchSummary",
    "LRUCache",
    "MSTService",
    "Query",
    "QueryError",
    "QueryOutcome",
    "ServiceConfig",
    "Ticket",
    "batch_exit_code",
    "classify_error",
    "execute_query",
    "parse_batch_lines",
    "render_prometheus",
    "result_key",
    "run_batch_lines",
    "summarize",
    "sweep_queries",
]
