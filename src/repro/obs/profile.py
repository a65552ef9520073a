"""Exportable run profiles: one JSON artifact per MST run, diffable.

A :class:`RunProfile` captures everything needed to attribute and
compare a run after the fact — a structural graph fingerprint, the
configuration, the flat metric dict, and the per-kernel breakdown —
without pickling and without retaining the graph itself.  Profiles
serialize to plain JSON (:meth:`RunProfile.to_json` /
:meth:`RunProfile.from_json`) and :func:`diff` compares two of them
metric-by-metric for regression hunting (the Table 5 de-optimization
deltas are exactly such diffs).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

__all__ = ["KernelBreakdown", "ProfileDiff", "RunProfile", "diff"]

SCHEMA = "repro.obs.profile/v1"


def graph_fingerprint(graph) -> dict:
    """Structural identity of a graph, cheap and pickle-free.

    The digest (:meth:`~repro.graph.csr.CSRGraph.digest`, computed once
    per graph) covers the CSR arrays (topology + weights), so two
    graphs with the same fingerprint describe the same weighted
    adjacency — enough to know a profile diff compares like with like.
    Each call returns a fresh dict.
    """
    return {
        "name": graph.name,
        "vertices": int(graph.num_vertices),
        "edges": int(graph.num_edges),
        "directed_edges": int(graph.num_directed_edges),
        "digest": graph.digest(),
    }


@dataclass
class KernelBreakdown:
    """Aggregate of every launch of one kernel name."""

    name: str
    launches: int = 0
    items: int = 0
    cycles: float = 0.0
    bytes: float = 0.0
    atomics: int = 0
    atomics_skipped: int = 0
    # Worst single-address contention over the launches (max, not sum:
    # it is a per-launch critical path) and the summed dependent-access
    # chain — the per-launch records the roofline attribution needs.
    atomic_max_contention: int = 0
    critical_items: int = 0
    find_jumps: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "KernelBreakdown":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


def _kernel_breakdowns(counters) -> dict[str, KernelBreakdown]:
    out: dict[str, KernelBreakdown] = {}
    for k in counters.kernels:
        b = out.get(k.name)
        if b is None:
            b = out[k.name] = KernelBreakdown(name=k.name)
        b.launches += 1
        b.items += k.items
        b.cycles += k.cycles
        b.bytes += k.bytes
        b.atomics += k.atomics
        b.atomics_skipped += k.atomics_skipped
        b.atomic_max_contention = max(
            b.atomic_max_contention, k.atomic_max_contention
        )
        b.critical_items += k.critical_items
        b.find_jumps += k.find_jumps
        b.seconds += k.modeled_seconds
    return out


@dataclass
class RunProfile:
    """Serializable record of one run's identity, config, and cost."""

    schema: str = SCHEMA
    algorithm: str = ""
    graph: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    rounds: int = 0
    total_weight: int = 0
    num_mst_edges: int = 0
    modeled_seconds: float = 0.0
    memcpy_seconds: float = 0.0
    metrics: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)  # name -> KernelBreakdown
    # Roofline bound report (repro.obs.roofline schema); empty when the
    # run's GPUSpec was unavailable to attribute against.
    roofline: dict = field(default_factory=dict)
    # Host-side self-profiling: the simulator's own wall-clock hot
    # spots.  Deliberately kept out of ``metrics`` — wall time is noisy
    # and must never feed the deterministic regression gate.
    host: dict = field(default_factory=dict)
    # Per-round worklist trajectory ([{entries, survivors, added}]) —
    # the dashboard's round-timeline source.  Empty for runners that
    # report no per-round stats (baselines); absent in pre-telemetry
    # profiles (from_dict tolerates both).
    round_log: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result, *, gpu=None, tracer=None) -> "RunProfile":
        """Build a profile from any runner's :class:`MstResult`.

        ``gpu``: the :class:`~repro.gpusim.spec.GPUSpec` the run was
        priced with, enabling the roofline bound report; defaults to
        the spec the runner recorded in ``result.extra["gpu_spec"]``.
        ``tracer``: an enabled tracer that observed the run, folding
        its host wall-clock hot spots into the profile.
        """
        from .metrics import collect_result_metrics

        cfg = result.extra.get("config")
        config = dataclasses.asdict(cfg) if dataclasses.is_dataclass(cfg) else {}
        gpu = gpu if gpu is not None else result.extra.get("gpu_spec")
        roofline: dict = {}
        if gpu is not None:
            from .roofline import roofline_report

            roofline = roofline_report(result.counters, gpu).to_dict()
        host: dict = {}
        if tracer is not None and getattr(tracer, "enabled", False):
            from .trace import host_hotspots

            host = {"hotspots": host_hotspots(tracer)}
        return cls(
            algorithm=result.algorithm,
            graph=graph_fingerprint(result.graph),
            config=config,
            rounds=result.rounds,
            total_weight=result.total_weight,
            num_mst_edges=result.num_mst_edges,
            modeled_seconds=result.modeled_seconds,
            memcpy_seconds=result.memcpy_seconds,
            metrics=collect_result_metrics(result),
            kernels=_kernel_breakdowns(result.counters),
            roofline=roofline,
            host=host,
            round_log=[
                dict(s) for s in getattr(result, "round_stats", None) or []
            ],
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["kernels"] = {
            name: (b.to_dict() if isinstance(b, KernelBreakdown) else dict(b))
            for name, b in self.kernels.items()
        }
        return d

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "RunProfile":
        known = {f.name for f in dataclasses.fields(cls)}
        d = {k: v for k, v in d.items() if k in known}
        d["kernels"] = {
            name: KernelBreakdown.from_dict(b)
            for name, b in d.get("kernels", {}).items()
        }
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "RunProfile":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "RunProfile":
        with open(path) as f:
            return cls.from_json(f.read())

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable per-kernel breakdown (the §5.1 profile view)."""
        lines = [
            f"{self.algorithm} on {self.graph.get('name', '?')} "
            f"(|V|={self.graph.get('vertices')}, |E|={self.graph.get('edges')}): "
            f"{self.modeled_seconds * 1e3:.4f} ms modeled, {self.rounds} rounds"
        ]
        total = self.modeled_seconds or 1.0
        name_w = max((len(n) for n in self.kernels), default=6)
        bounds = {
            k.get("name"): k.get("bound", "")
            for k in self.roofline.get("kernels", [])
        }
        for name, b in sorted(
            self.kernels.items(), key=lambda kv: -kv[1].seconds
        ):
            bound = f"  {bounds[name]}-bound" if bounds.get(name) else ""
            lines.append(
                f"  {name.ljust(name_w)} {b.launches:5d}x "
                f"{b.seconds * 1e6:12.2f}us {b.seconds / total * 100:5.1f}%"
                f"{bound}"
            )
        return "\n".join(lines)


@dataclass
class ProfileDiff:
    """Metric-by-metric comparison of two profiles."""

    a: RunProfile
    b: RunProfile
    entries: dict = field(default_factory=dict)
    comparable: bool = True

    def to_dict(self) -> dict:
        return {
            "schema": "repro.obs.profile-diff/v1",
            "comparable": self.comparable,
            "a": {"algorithm": self.a.algorithm, "graph": self.a.graph},
            "b": {"algorithm": self.b.algorithm, "graph": self.b.graph},
            "entries": self.entries,
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self, *, min_ratio: float = 0.0) -> str:
        lines = []
        if not self.comparable:
            lines.append(
                "WARNING: profiles fingerprint different graphs — deltas "
                "compare unlike runs"
            )
        lines.append(f"{'metric':40s} {'a':>14s} {'b':>14s} {'b/a':>8s}")
        for key in sorted(self.entries):
            e = self.entries[key]
            if e["ratio"] is not None and abs(e["ratio"] - 1.0) < min_ratio:
                continue
            ratio = f"{e['ratio']:.3f}" if e["ratio"] is not None else "n/a"
            lines.append(
                f"{key:40s} {e['a']:14.6g} {e['b']:14.6g} {ratio:>8s}"
            )
        return "\n".join(lines)


def diff(a: RunProfile, b: RunProfile) -> ProfileDiff:
    """Compare two profiles over the union of their metric names.

    Each entry records both values, the absolute delta ``b - a`` and
    the ratio ``b / a`` (``None`` when ``a`` is zero).  Histogram
    ``.count``-style keys missing on one side default to zero, so a
    metric disappearing (e.g. atomics elided after removing the guard
    optimization) shows up as a ratio of 0 rather than vanishing.
    """
    from .metrics import metric_direction

    keys = set(a.metrics) | set(b.metrics)
    entries: dict = {}
    for key in sorted(keys):
        va = float(a.metrics.get(key, 0.0))
        vb = float(b.metrics.get(key, 0.0))
        entries[key] = {
            "a": va,
            "b": vb,
            "delta": vb - va,
            "ratio": (vb / va) if va != 0 else None,
            "direction": metric_direction(key),
        }
    comparable = a.graph.get("digest") == b.graph.get("digest")
    return ProfileDiff(a=a, b=b, entries=entries, comparable=comparable)
