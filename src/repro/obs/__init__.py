"""Observability: span tracing, metrics, and exportable run profiles.

The paper's evidence is observational — the §5.1 kernel-time profile,
the Table 5 de-optimization deltas, the Fig. 6 seed study — so this
package gives every run a uniform way to answer "where did the work
and modeled time go":

* :mod:`~repro.obs.trace` — nested spans (``run > phase > round >
  kernel``) with wall + modeled time, zero-overhead when disabled;
* :mod:`~repro.obs.metrics` — a flat registry of named
  counters/gauges/histograms derived from the measured kernel counters;
* :mod:`~repro.obs.export` — NDJSON span logs and Chrome-trace /
  Perfetto JSON keyed to modeled microseconds;
* :mod:`~repro.obs.profile` — serializable run profiles with
  ``diff()`` for regression hunting;
* :mod:`~repro.obs.roofline` — per-kernel bound classification
  (compute-/memory-/serial-/atomic-/launch-bound) derived from the
  cost model's own time decomposition;
* :mod:`~repro.obs.events` — leveled structured events with
  correlation IDs (run → query → span), NDJSON/console sinks, and a
  zero-overhead null log;
* :mod:`~repro.obs.slo` — the window of finished queries: declarative
  SLOs evaluated into burn rates and alert transitions, and the
  service's windowed latency and qps;
* :mod:`~repro.obs.recorder` — the always-on flight recorder: bounded
  rings of recent events/outcomes/spans, postmortem bundles captured
  on failure signals, and deterministic bundle replay (the
  ``repro-mst postmortem`` / ``repro-mst replay`` verbs);
* :mod:`~repro.obs.dashboard` — the self-contained static HTML run
  dashboard behind ``repro-mst dashboard``.
"""

from .events import (
    NULL_EVENTS,
    ConsoleSink,
    Event,
    EventLog,
    ListSink,
    NDJSONSink,
    NullEventLog,
    configure_events,
    format_event_line,
    get_event_log,
    new_run_id,
    reset_events,
)
from .export import (
    chrome_trace_events,
    to_chrome_trace_json,
    to_ndjson,
    write_chrome_trace,
    write_ndjson,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_result_metrics,
    metric_direction,
)
from .profile import KernelBreakdown, ProfileDiff, RunProfile, diff, graph_fingerprint
from .recorder import (
    FlightRecorder,
    ReplayReport,
    TeeEventLog,
    bundle_summary,
    load_bundle,
    recent_bundles,
    render_postmortem,
    replay_bundle,
)
from .roofline import BoundReport, KernelRoofline, launch_shares, roofline_report
from .slo import DEFAULT_SLOS, SLOSpec, SLOStatus, SLOTracker
from .trace import NULL_TRACER, NullTracer, Span, Tracer, host_hotspots

__all__ = [
    "BoundReport",
    "ConsoleSink",
    "Counter",
    "DEFAULT_SLOS",
    "Event",
    "EventLog",
    "FlightRecorder",
    "ListSink",
    "NDJSONSink",
    "NULL_EVENTS",
    "NullEventLog",
    "SLOSpec",
    "SLOStatus",
    "SLOTracker",
    "Gauge",
    "Histogram",
    "KernelBreakdown",
    "KernelRoofline",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ProfileDiff",
    "ReplayReport",
    "RunProfile",
    "Span",
    "TeeEventLog",
    "Tracer",
    "bundle_summary",
    "chrome_trace_events",
    "collect_result_metrics",
    "configure_events",
    "diff",
    "format_event_line",
    "get_event_log",
    "graph_fingerprint",
    "host_hotspots",
    "load_bundle",
    "new_run_id",
    "recent_bundles",
    "render_postmortem",
    "replay_bundle",
    "reset_events",
    "launch_shares",
    "metric_direction",
    "roofline_report",
    "to_chrome_trace_json",
    "to_ndjson",
    "write_chrome_trace",
    "write_ndjson",
]
