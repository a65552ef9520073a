"""Named metrics registry + the standard per-run metric set.

A :class:`MetricsRegistry` holds counters, gauges and histograms under
flat dotted names and renders to one flat, comparable dict — the unit
of exchange for run profiles and profile diffs.  The registry is
deliberately small: metrics here are *descriptive* (derived from the
measured :class:`~repro.gpusim.counters.KernelCounters`), never a
second source of truth.

:func:`collect_result_metrics` maps one
:class:`~repro.core.result.MstResult` onto the standard metric set:
round counts, worklist shrink rate, atomics executed/elided, the
find-jump depth distribution, bytes per edge, and per-kernel modeled
seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_result_metrics",
    "metric_direction",
    "nearest_rank",
]

# ----------------------------------------------------------------------
# Metric directions: what counts as a *regression* when a metric moves
# (each ProfileDiff entry carries its metric's direction).  ``lower``
# (the default) treats growth as a regression — costs, counts of work,
# modeled seconds.  ``higher`` treats shrinkage as a regression —
# savings such as elided atomics or throughput.  ``exact`` metrics
# must not move at all (correctness outputs).  ``info`` metrics are
# descriptive (e.g. the sampled filter threshold).
# ----------------------------------------------------------------------
_HIGHER_IS_BETTER = {
    "atomics.elided",
    "atomics.elision_rate",
    "filter.edges_elided",
    "run.throughput_meps",
}
_EXACT = {
    "run.total_weight",
    "run.mst_edges",
    "filter.active",
}
_INFO = {"filter.threshold"}


def metric_direction(name: str) -> str:
    """``"lower"``, ``"higher"``, ``"exact"``, or ``"info"`` for a
    metric name (see the registry comment above)."""
    if name in _EXACT:
        return "exact"
    if name in _INFO:
        return "info"
    if name in _HIGHER_IS_BETTER:
        return "higher"
    return "lower"


def nearest_rank(xs: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of the ascending list ``xs``.

    ``q`` must lie in ``[0, 1]`` (anything else — including NaN —
    raises ``ValueError`` rather than mis-indexing).  An empty list
    returns the documented ``0.0`` sentinel so metric dicts stay
    numeric; a single observation answers every quantile.
    """
    if not 0.0 <= q <= 1.0:  # NaN fails this comparison too
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if not xs:
        return 0.0
    return xs[min(len(xs) - 1, max(0, math.ceil(q * len(xs)) - 1))]


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def as_dict(self) -> dict[str, float]:
        return {self.name: self.value}


@dataclass
class Gauge:
    """Point-in-time value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_dict(self) -> dict[str, float]:
        return {self.name: self.value}


@dataclass
class Histogram:
    """Sampled distribution, summarized as count/min/mean/max/quantiles."""

    name: str
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile of the recorded samples (see
        :func:`nearest_rank`)."""
        return nearest_rank(sorted(self.samples), q)

    def as_dict(self) -> dict[str, float]:
        n = len(self.samples)
        if n == 0:
            return {f"{self.name}.count": 0}
        return {
            f"{self.name}.count": n,
            f"{self.name}.min": min(self.samples),
            f"{self.name}.mean": sum(self.samples) / n,
            f"{self.name}.p50": self.quantile(0.5),
            f"{self.name}.p90": self.quantile(0.9),
            f"{self.name}.max": max(self.samples),
        }


class MetricsRegistry:
    """Flat namespace of named metrics.

    Metric families are created on first use (``counter(name)`` etc.)
    and re-registering a name with a different type is an error — the
    registry guarantees one meaning per name.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def as_dict(self) -> dict[str, float]:
        """One flat ``{dotted.name: scalar}`` dict, sorted by name."""
        out: dict[str, float] = {}
        for name in self.names():
            out.update(self._metrics[name].as_dict())
        return out


def collect_result_metrics(result) -> dict[str, float]:
    """The standard flat metric dict for one :class:`MstResult`.

    Works for every runner (ECL-MST and all baselines) since it reads
    only the shared result/counters surface; worklist metrics appear
    when the run recorded per-round stats.
    """
    reg = MetricsRegistry()
    counters = result.counters
    g = result.graph

    reg.gauge("run.rounds").set(result.rounds)
    reg.gauge("run.mst_edges").set(result.num_mst_edges)
    reg.gauge("run.total_weight").set(result.total_weight)
    reg.gauge("run.modeled_seconds").set(result.modeled_seconds)
    reg.gauge("run.memcpy_seconds").set(result.memcpy_seconds)
    if result.modeled_seconds > 0:
        reg.gauge("run.throughput_meps").set(
            g.num_directed_edges / result.modeled_seconds / 1e6
        )

    reg.counter("kernel.launches").inc(counters.num_launches)
    reg.counter("kernel.items").inc(counters.total("items"))
    reg.counter("kernel.cycles").inc(counters.total("cycles"))
    reg.counter("kernel.bytes").inc(counters.total("bytes"))
    atomics = counters.total("atomics")
    elided = counters.total("atomics_skipped")
    reg.counter("atomics.executed").inc(atomics)
    reg.counter("atomics.elided").inc(elided)
    if atomics + elided > 0:
        reg.gauge("atomics.elision_rate").set(elided / (atomics + elided))
    reg.counter("dsu.find_jumps").inc(counters.total("find_jumps"))
    if g.num_directed_edges > 0:
        reg.gauge("memory.bytes_per_edge").set(
            counters.total("bytes") / g.num_directed_edges
        )

    # Find-jump depth distribution: jumps per worklist item, sampled
    # per launch that performed finds (k1/k2 and phase-2 populate).
    depth = reg.histogram("dsu.find_jump_depth")
    for k in counters.kernels:
        if k.find_jumps > 0 and k.items > 0:
            depth.observe(k.find_jumps / k.items)

    # Worklist shrink rate: the per-round survivor fraction (the
    # geometric-decay property that bounds rounds at O(log |V|)).
    stats = getattr(result, "round_stats", None) or []
    shrink = reg.histogram("worklist.shrink_rate")
    for rs in stats:
        entries = rs["entries"] if not hasattr(rs, "entries") else rs.entries
        survivors = (
            rs["survivors"] if not hasattr(rs, "survivors") else rs.survivors
        )
        if entries > 0:
            shrink.observe(survivors / entries)

    # Filtering effectiveness (the §5.4 optimization): how many
    # undirected edges the sampled threshold deferred past phase 1.
    # Higher-is-better in diffs — losing elided edges is a regression.
    plan = (result.extra or {}).get("filter_plan")
    if plan is not None and getattr(plan, "active", False):
        reg.gauge("filter.active").set(1)
        reg.gauge("filter.threshold").set(plan.threshold)
        deferred = int((g.weights >= plan.threshold).sum()) // 2
        reg.counter("filter.edges_elided").inc(deferred)

    # Resilience ladder counters, present only when the run was guarded
    # (result.extra["resilience"] set by the driver).
    res = (result.extra or {}).get("resilience")
    if res:
        for key in (
            "checks_run",
            "invariant_violations",
            "device_faults",
            "rollbacks",
            "retries",
            "phase_restarts",
            "verify_detections",
            "fallbacks",
            "detected",
        ):
            reg.counter(f"resilience.{key}").inc(res.get(key, 0))
    fi = (result.extra or {}).get("fault_injection")
    if fi:
        reg.counter("faults.planned").inc(fi.get("planned", 0))
        reg.counter("faults.injected").inc(fi.get("injected", 0))

    out = reg.as_dict()
    # Per-kernel modeled seconds, flat under "seconds.<kernel>".
    for name, secs in sorted(counters.seconds_by_kernel().items()):
        out[f"seconds.{name}"] = secs
    return out
