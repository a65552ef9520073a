"""Executable demonstration of Section 3.1: the convergence of
Kruskal's and Borůvka's parallelizations.

The paper's fourth contribution is the observation that fully
parallelizing Kruskal's algorithm *converges* to the natural
parallelization of Borůvka's.  This module re-enacts the derivation as
three runnable algorithms plus the equivalence checks:

1. :func:`kruskal_chunked_sorted` — the mid-point of the derivation:
   edges sorted by key, processed in chunks, with **edge-index**
   deterministic reservations ("the relative position of the edge
   within the chunk ... but only if it is smaller than the smallest
   index already recorded").

2. :func:`kruskal_unsorted` — the paper's two optimizations applied:
   since sorted order makes a lower index equivalent to a lower weight,
   reserve by **weight key** instead — and then sorting becomes
   unnecessary and the chunk can cover all edges.  This *is* ECL-MST's
   parallelization (edge-centric viewpoint).

3. :func:`boruvka_parallel` — the Section-3.1 Borůvka parallelization
   (vertex-centric viewpoint): every vertex records its lightest
   cross-set neighbor at its representative, then representatives
   merge.

The equivalence is checkable per round, not just at the end:
:func:`trace_equivalence` verifies that (2) and (3) select the *same
winner edges in the same rounds*, and that (1) selects the same total
edge set — which is exactly the paper's claim that "there is no actual
difference in the codes", merely a difference in viewpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dsu.vectorized import find_many, link_winners
from ..gpusim.atomics import KEY_INFINITY, pack_keys
from ..graph.csr import CSRGraph

__all__ = [
    "RoundTrace",
    "kruskal_chunked_sorted",
    "kruskal_unsorted",
    "boruvka_parallel",
    "trace_equivalence",
]


@dataclass
class RoundTrace:
    """Per-round record of one parallelization run."""

    algorithm: str
    winners_per_round: list[frozenset[int]] = field(default_factory=list)
    in_mst: np.ndarray | None = None

    @property
    def rounds(self) -> int:
        return len(self.winners_per_round)

    def edge_set(self) -> frozenset[int]:
        out: set[int] = set()
        for w in self.winners_per_round:
            out |= w
        return frozenset(out)


def kruskal_chunked_sorted(graph: CSRGraph, chunk_size: int | None = None) -> RoundTrace:
    """Parallel Kruskal, derivation mid-point: sorted edges, chunked
    processing, reservations by *relative edge index within the chunk*.
    """
    u, v, w, eid = graph.undirected_edges()
    keys = pack_keys(w, eid)
    order = np.argsort(keys)
    u, v, w, eid = u[order], v[order], w[order], eid[order]
    n = graph.num_vertices
    if chunk_size is None:
        chunk_size = max(1, n // 2)

    parent = np.arange(n, dtype=np.int64)
    reservation = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    trace = RoundTrace("kruskal-chunked-sorted")
    in_mst = np.zeros(graph.num_edges, dtype=bool)

    for start in range(0, u.size, chunk_size):
        stop = min(start + chunk_size, u.size)
        live = np.arange(start, stop, dtype=np.int64)
        while live.size:
            p = find_many(parent, u[live])[0]
            q = find_many(parent, v[live])[0]
            cross = p != q
            live, p, q = live[cross], p[cross], q[cross]
            if live.size == 0:
                break
            # Reserve by index-within-chunk (position in sorted order).
            idx = live - start
            np.minimum.at(reservation, p, idx)
            np.minimum.at(reservation, q, idx)
            win = (idx == reservation[p]) | (idx == reservation[q])
            committed = link_winners(parent, p, q, np.flatnonzero(win))
            winners = frozenset(eid[live[committed]].tolist())
            if winners:
                in_mst[list(winners)] = True
                trace.winners_per_round.append(winners)
            touched = np.unique(np.concatenate([p, q]))
            reservation[touched] = np.iinfo(np.int64).max
            live = live[~win]
    trace.in_mst = in_mst
    return trace


def kruskal_unsorted(graph: CSRGraph) -> RoundTrace:
    """The end-point of the derivation: one all-edges chunk, unsorted,
    reservations by packed weight key — ECL-MST's parallelization,
    edge-centric viewpoint."""
    u, v, w, eid = graph.undirected_edges()
    keys = pack_keys(w, eid)
    n = graph.num_vertices
    parent = np.arange(n, dtype=np.int64)
    reservation = np.full(n, KEY_INFINITY, dtype=np.uint64)
    trace = RoundTrace("kruskal-unsorted")
    in_mst = np.zeros(graph.num_edges, dtype=bool)

    live = np.arange(u.size, dtype=np.int64)
    while live.size:
        p = find_many(parent, u[live])[0]
        q = find_many(parent, v[live])[0]
        cross = p != q
        live, p, q = live[cross], p[cross], q[cross]
        if live.size == 0:
            break
        k = keys[live]
        np.minimum.at(reservation, p, k)
        np.minimum.at(reservation, q, k)
        win = (k == reservation[p]) | (k == reservation[q])
        committed = link_winners(parent, p, q, np.flatnonzero(win))
        winners = frozenset(eid[live[committed]].tolist())
        if winners:
            in_mst[list(winners)] = True
            trace.winners_per_round.append(winners)
        touched = np.unique(np.concatenate([p, q]))
        reservation[touched] = KEY_INFINITY
        live = live[~win]
    trace.in_mst = in_mst
    return trace


def boruvka_parallel(graph: CSRGraph) -> RoundTrace:
    """The Section-3.1 Borůvka parallelization, vertex-centric
    viewpoint: every vertex records its lightest cross-set neighbor in
    its set's representative; representatives then merge."""
    n = graph.num_vertices
    src = graph.edge_sources().astype(np.int64)
    dst = graph.col_idx.astype(np.int64)
    w = graph.weights.astype(np.int64)
    eid = graph.edge_ids.astype(np.int64)
    keys_all = pack_keys(w, eid)

    parent = np.arange(n, dtype=np.int64)
    min_edge = np.full(n, KEY_INFINITY, dtype=np.uint64)
    trace = RoundTrace("boruvka-parallel")
    in_mst = np.zeros(graph.num_edges, dtype=bool)

    while True:
        # Step 1: every vertex determines its set.
        rep = find_many(parent, np.arange(n, dtype=np.int64))[0]
        p, q = rep[src], rep[dst]
        cross = p != q
        if not cross.any():
            break
        # Step 2: record the lightest cross neighbor at the rep (each
        # vertex pushes its candidates; the atomicMin keeps the min).
        np.minimum.at(min_edge, p[cross], keys_all[cross])
        # Step 3: each representative merges along its recorded edge.
        # An edge is "recorded" if its key sits in either endpoint rep
        # (the mirrored slot recorded it for the other side).
        win = cross & (
            (keys_all == min_edge[p]) | (keys_all == min_edge[q])
        )
        win_slots = np.flatnonzero(win)
        committed = link_winners(parent, p, q, win_slots)
        winners = frozenset(eid[committed].tolist())
        # Mirrored duplicates commit only once; collect all marked IDs.
        marked = frozenset(int(e) for e in np.unique(eid[win_slots]))
        new = frozenset(e for e in marked if not in_mst[e])
        if new:
            in_mst[list(new)] = True
            trace.winners_per_round.append(new)
        touched = np.unique(np.concatenate([p[cross], q[cross]]))
        min_edge[touched] = KEY_INFINITY
        if not winners and not new:
            break
    trace.in_mst = in_mst
    return trace


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the convergence demonstration."""

    same_edge_set: bool
    same_round_structure: bool
    rounds: tuple[int, int, int]  # chunked, unsorted, boruvka

    @property
    def converged(self) -> bool:
        return self.same_edge_set and self.same_round_structure


def trace_equivalence(graph: CSRGraph, chunk_size: int | None = None) -> EquivalenceReport:
    """Run all three parallelizations and compare.

    * All three must select the identical MSF edge set.
    * The unsorted-Kruskal and Borůvka runs must select the *same
      winners in the same rounds* — the paper's "no actual difference
      in the codes".
    """
    chunked = kruskal_chunked_sorted(graph, chunk_size)
    unsorted = kruskal_unsorted(graph)
    boruvka = boruvka_parallel(graph)

    same_set = (
        chunked.edge_set() == unsorted.edge_set() == boruvka.edge_set()
    )
    same_rounds = unsorted.winners_per_round == boruvka.winners_per_round
    return EquivalenceReport(
        same_edge_set=same_set,
        same_round_structure=same_rounds,
        rounds=(chunked.rounds, unsorted.rounds, boruvka.rounds),
    )
