"""End-to-end and per-layer metrics from one run.

Metric names and units are declared once, in ``BENCHMARK.json``; this
module computes the values by name.  End-to-end times, and the
``trace.*`` figures that mirror them, are at the probe's nominal host
speed (``probe.py``); span times are raw wall time.  Per-layer times
are milliseconds per operation (one pipeline op, one solve, or one
served query), so a layer's self time plus its children's times adds
up to its own time.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from .trace import MODULE_HOOKS, RECORDER_HOOKS, SERVICE_HOOKS, SpanTable, TraceError

# Kernel names ``RunCounters.seconds_by_kernel()`` may report for ECL-MST.
KERNELS = ("init", "k1_reserve", "host_sync", "k2_union", "k3_reset")

# Spans per-layer time metrics read: metric -> (span, "total" | "self" | "calls").
SPAN_METRICS = {
    "bench.op_ms": ("bench.op", "total"),
    "bench.op.self_ms": ("bench.op", "self"),
    "generators.build_ms": ("generators.build", "total"),
    "generators.build.self_ms": ("generators.build", "self"),
    "graph.from_edge_arrays_ms": ("graph.from_edge_arrays", "total"),
    "core.ecl_mst_ms": ("core.ecl_mst", "total"),
    "core.ecl_mst.self_ms": ("core.ecl_mst", "self"),
    "core.plan_filtering_ms": ("core.plan_filtering", "total"),
    "core.state_create_ms": ("core.state_create", "total"),
    "kernels.init_populate_ms": ("kernels.init_populate", "total"),
    "kernels.init_populate.calls": ("kernels.init_populate", "calls"),
    "kernels.k1_reserve_ms": ("kernels.k1_reserve", "total"),
    "kernels.k1_reserve.calls": ("kernels.k1_reserve", "calls"),
    "kernels.k2_union_ms": ("kernels.k2_union", "total"),
    "kernels.k2_union.self_ms": ("kernels.k2_union", "self"),
    "kernels.k2_union.calls": ("kernels.k2_union", "calls"),
    "kernels.k3_reset_ms": ("kernels.k3_reset", "total"),
    "kernels.k3_reset.calls": ("kernels.k3_reset", "calls"),
    "dsu.resolve_roots_ms": ("dsu.resolve_roots", "total"),
    "dsu.resolve_roots.calls": ("dsu.resolve_roots", "calls"),
    "verify.verify_mst_ms": ("verify.verify_mst", "total"),
    "verify.verify_mst.self_ms": ("verify.verify_mst", "self"),
    "verify.reference_mst_mask_ms": ("verify.reference_mst_mask", "total"),
    "service.submit_ms": ("service.submit", "total"),
    "service.worker_ms": ("service.worker", "total"),
    "service.worker.self_ms": ("service.worker", "self"),
    "service.execute_ms": ("service.execute", "total"),
    "service.execute.self_ms": ("service.execute", "self"),
    "service.fingerprint_ms": ("service.fingerprint", "total"),
    "obs.collect_result_metrics_ms": ("obs.collect_result_metrics", "total"),
    "obs.recorder_ms": ("obs.recorder", "total"),
}

_CORE = ("core.ecl_mst", "core.plan_filtering", "core.state_create",
         "kernels.init_populate", "kernels.k1_reserve", "kernels.k2_union",
         "kernels.k3_reset")
_SERVICE = ("service.submit", "service.worker", "service.execute",
            "service.fingerprint", "obs.collect_result_metrics", "obs.recorder")
_ALL_SPANS = (
    {"bench.op"}
    | {h.span for h in MODULE_HOOKS}
    | {s for s, _, _ in SERVICE_HOOKS + RECORDER_HOOKS}
)

# Where each span must fire in the timed path; every other hooked span
# must stay silent there.  ``dsu.resolve_roots`` only runs when a round
# has more than a few dozen union winners, so it is declared only on
# the workloads whose graphs guarantee that.
FIRES = {
    "pipeline-road": {"bench.op", "generators.build", "graph.from_edge_arrays",
                      *_CORE, "dsu.resolve_roots", "verify.verify_mst",
                      "verify.reference_mst_mask"},
    "solve-rmat": {"bench.op", *_CORE, "dsu.resolve_roots"},
    "serve-batch": {*_CORE, "verify.verify_mst", "verify.reference_mst_mask",
                    *_SERVICE},
}
MAY_FIRE = {"serve-batch": {"dsu.resolve_roots"}}


def quantile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def modeled_meps(counts) -> float:
    """Directed input edges per modeled device second, over distinct inputs."""
    edges = sum(c["directed_edges"] for c in counts)
    seconds = sum(c["modeled_s"] for c in counts)
    return edges / seconds / 1e6


def end_to_end(stats, setup_s: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "latency_p50_ms": quantile_ms(stats.latencies, 50),
        "latency_p90_ms": quantile_ms(stats.latencies, 90),
        "throughput_ops_s": stats.attempted / stats.busy_s,
        "modeled_meps": modeled_meps(stats.counts.values()),
        "peak_rss_mb": peak_rss_mb(),
    }


def check_fired(workload: str, table: SpanTable) -> None:
    """Fail when a declared span never fired, or an undeclared one did."""
    must = FIRES[workload]
    allowed = must | MAY_FIRE.get(workload, set())
    silent = sorted(s for s in must if table.calls.get(s, 0) == 0)
    if silent:
        raise TraceError(f"{workload}: declared spans never fired: {', '.join(silent)}")
    stray = sorted(s for s in _ALL_SPANS - allowed if table.calls.get(s, 0))
    if stray:
        raise TraceError(f"{workload}: undeclared spans fired: {', '.join(stray)}")


def _count_metrics(counts: list[dict]) -> dict[str, float]:
    """Means per ECL-MST run of the solver and simulator counts."""
    out = {name: 0.0 for name in (
        "core.rounds", "core.worklist_entries", "core.union_yield",
        "gpusim.launches", "gpusim.atomics", "gpusim.find_jumps", "gpusim.bytes_mb",
        *(f"gpusim.{k}.modeled_us" for k in KERNELS))}
    if not counts:
        return out
    n = len(counts)
    for c in counts:
        unknown = set(c["by_kernel"]) - set(KERNELS)
        if unknown:
            raise TraceError(f"undeclared kernels: {', '.join(sorted(unknown))}")
        for k, s in c["by_kernel"].items():
            out[f"gpusim.{k}.modeled_us"] += s * 1e6 / n
    out["core.rounds"] = sum(c["rounds"] for c in counts) / n
    out["core.worklist_entries"] = sum(c["entries"] for c in counts) / n
    out["core.union_yield"] = (
        sum(c["added"] for c in counts) / sum(c["entries"] for c in counts)
    )
    out["gpusim.launches"] = sum(c["launches"] for c in counts) / n
    out["gpusim.atomics"] = sum(c["atomics"] for c in counts) / n
    out["gpusim.find_jumps"] = sum(c["find_jumps"] for c in counts) / n
    out["gpusim.bytes_mb"] = sum(c["bytes"] for c in counts) / n / 1e6
    return out


def per_layer(stats, table: SpanTable, counts: list[dict],
              reference_s: list[float], spans: int) -> dict[str, float]:
    ops = stats.attempted
    out: dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        if kind == "calls":
            out[metric] = table.calls.get(span, 0) / ops
        else:
            src = table.total if kind == "total" else table.self_time
            out[metric] = src.get(span, 0.0) * 1e3 / ops

    # Serving: queue wait (submit return -> execute_query start) per
    # executed query, fingerprints per executed query, cache outcomes.
    executed = [op for (name, op) in table.starts if name == "service.execute"]
    waits = [table.starts[("service.execute", op)] - table.ends[("service.submit", op)]
             for op in executed]
    out["service.queue_wait_ms"] = statistics.fmean(waits) * 1e3 if waits else 0.0
    out["service.fingerprint.calls_per_query"] = (
        table.calls.get("service.fingerprint", 0) / len(executed) if executed else 0.0
    )
    served = stats.served_by
    out["service.result_cache_hit_ratio"] = (
        served.count("result-cache") / len(served) if served else 0.0
    )
    out["service.coalesced_ratio"] = served.count("coalesced") / len(served) if served else 0.0

    out.update(_count_metrics(counts))
    out["generators.edges"] = (
        statistics.fmean(c["directed_edges"] / 2 for c in counts)
        if table.calls.get("generators.build") else 0.0
    )
    out["reference.scipy_mst_ms"] = statistics.median(reference_s) * 1e3
    out["trace.latency_p50_ms"] = quantile_ms(stats.latencies, 50)
    out["trace.throughput_ops_s"] = stats.attempted / stats.busy_s
    out["host.probe_ms"] = stats.probe_ms
    out["trace.spans_per_op"] = spans / ops
    return out
