"""Result object returned by every MST runner (ECL-MST and baselines)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..gpusim.counters import RunCounters

__all__ = ["MstResult", "RoundStats"]


@dataclass
class RoundStats:
    """Per-round diagnostics of the Alg.-2 while loop.

    One record per data-driven round: worklist entries at round start,
    entries surviving the cycle discard (round i+1's input), and edges
    committed to the MST.  Emitted through the tracer's ``round`` spans
    and collected on :attr:`MstResult.round_stats`.

    Supports ``stats["entries"]``-style access for compatibility with
    the deprecated ``MstResult.extra["round_log"]`` dict format.
    """

    entries: int
    survivors: int
    added: int

    _KEYS = ("entries", "survivors", "added")

    def __getitem__(self, key: str) -> int:
        if key not in self._KEYS:
            raise KeyError(key)
        return getattr(self, key)

    def keys(self):  # dict-like, so ``dict(stats)`` works
        return iter(self._KEYS)

    def to_dict(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in self._KEYS}

    @property
    def shrink_rate(self) -> float:
        """Survivor fraction (the geometric-decay observable)."""
        return self.survivors / self.entries if self.entries else 0.0


@dataclass
class MstResult:
    """Outcome of one MST/MSF computation.

    ``in_mst[eid]`` flags the undirected edges selected; modeled times
    follow the paper's measurement protocol (computation only;
    ``memcpy_seconds`` adds the host↔device transfers for the
    "ECL-MST memcpy" rows).
    """

    graph: CSRGraph
    in_mst: np.ndarray
    total_weight: int
    num_mst_edges: int
    rounds: int
    modeled_seconds: float
    counters: RunCounters = field(default_factory=RunCounters)
    memcpy_seconds: float = 0.0
    algorithm: str = "ecl-mst"
    extra: dict = field(default_factory=dict)
    # Typed per-round diagnostics; ``extra["round_log"]`` aliases the
    # same records for backwards compatibility (deprecated).
    round_stats: list[RoundStats] = field(default_factory=list)

    @property
    def modeled_seconds_with_memcpy(self) -> float:
        return self.modeled_seconds + self.memcpy_seconds

    def throughput_meps(self, *, include_memcpy: bool = False) -> float:
        """Millions of (directed) edges per second, as in Figures 3/4."""
        t = self.modeled_seconds_with_memcpy if include_memcpy else self.modeled_seconds
        if t <= 0:
            return float("inf")
        return self.graph.num_directed_edges / t / 1e6

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, w)`` arrays of the selected MST edges.

        One entry per selected edge, ``u < v``, ordered by edge ID: the
        selected rows of :meth:`CSRGraph.undirected_edges`, but only the
        selected slots are gathered and sorted.
        """
        g = self.graph
        src = g.edge_sources()
        slots = np.flatnonzero(self.in_mst[g.edge_ids] & (src < g.col_idx))
        slots = slots[np.argsort(g.edge_ids[slots], kind="stable")]
        return src[slots], g.col_idx[slots], g.weights[slots]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MstResult({self.algorithm} on {self.graph.name}: "
            f"{self.num_mst_edges} edges, weight {self.total_weight}, "
            f"{self.modeled_seconds * 1e3:.3f} ms modeled)"
        )
