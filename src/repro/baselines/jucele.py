"""Jucele GPU baseline (Vasconcellos et al., SBAC-PAD'18).

A "pure MST" code: it targets graphs with a single connected component
(multi-component inputs are rejected — the NC cells of Tables 3/4).
Borůvka-based, **vertex-centric** and **data-driven**: one kernel finds
the lightest cross-component edge of each vertex, another marks the
chosen edges, then the components are recomputed (connected-components
style label propagation) instead of contracting the graph.  The
authors deliberately avoid CUDA-specific tricks beyond atomics, so the
simulation charges plain thread-per-vertex execution — whose warp
imbalance on skewed degree distributions is exactly why ECL-MST beats
it by ~19× on scale-free inputs while only ~2-4× on meshes.
"""

from __future__ import annotations

import numpy as np

from ..core.result import MstResult
from ..graph.csr import CSRGraph
from ..graph.properties import connected_components
from ..gpusim.costmodel import Device
from ..gpusim.spec import GPUSpec, RTX_3080_TI
from ..gpusim.warp import thread_mode_cycles
from ..obs.trace import NULL_TRACER
from ._boruvka_common import boruvka_round
from .errors import NotConnectedError

__all__ = ["jucele_mst"]

_VERTEX_CYCLES = 8.0  # per-vertex setup in the min-edge kernel
_NEIGHBOR_CYCLES = 7.0  # label load + compare + key build per edge slot
_MARK_CYCLES = 5.0  # winner check + hook per vertex
_PROP_VERTEX_CYCLES = 3.0  # one pointer-jump step per vertex


def jucele_mst(
    graph: CSRGraph, *, gpu: GPUSpec = RTX_3080_TI, tracer=None
) -> MstResult:
    """Compute the MST of a single-component ``graph``.

    Raises
    ------
    NotConnectedError
        If the graph has more than one connected component.
    """
    n_cc, _ = connected_components(graph)
    if n_cc != 1:
        raise NotConnectedError(
            f"{graph.name} has {n_cc} components; Jucele computes MSTs only"
        )

    tracer = tracer if tracer is not None else NULL_TRACER
    device = Device(gpu, tracer=tracer)
    n = graph.num_vertices
    src = graph.edge_sources().astype(np.int64)
    dst = graph.col_idx.astype(np.int64)
    w = graph.weights.astype(np.int64)
    eid = graph.edge_ids.astype(np.int64)
    degrees = graph.degrees()
    dmax = int(degrees.max()) if degrees.size else 0

    comp = np.arange(n, dtype=np.int64)
    in_mst = np.zeros(graph.num_edges, dtype=bool)
    active = np.ones(n, dtype=bool)  # data-driven: vertices still merging
    rounds = 0

    with tracer.span(
        f"jucele on {graph.name}",
        "run",
        algorithm="jucele-gpu",
        graph=graph.name,
        vertices=n,
        edges=graph.num_edges,
    ):
        while True:
            rounds += 1
            with tracer.span(f"round {rounds}", "round"):
                # Data-driven restriction: only slots whose source
                # vertex is still active are scanned this round.
                slot_active = active[src]
                s, d = src[slot_active], dst[slot_active]
                ws, es = w[slot_active], eid[slot_active]
                scanned = int(s.size)

                rnd = boruvka_round(s, d, ws, es, comp, tracer=tracer)
                in_mst[rnd.winner_eids] = True

                # Kernel 1: per-vertex lightest-edge search (thread per
                # vertex, unguarded atomicMin reductions -> same-address
                # serialization on the hottest component).
                work = np.where(active, degrees, 0)
                device.launch(
                    "find_min",
                    items=scanned,
                    cycles=thread_mode_cycles(work, _NEIGHBOR_CYCLES)
                    + n * _VERTEX_CYCLES,
                    bytes_=26.0 * scanned + 8.0 * n,
                    atomics=2 * rnd.cross_edges,  # atomicMin per endpoint
                    # Per-vertex reductions: contention bounded by degree.
                    atomic_max_contention=min(rnd.atomic_contention, dmax),
                    critical_items=dmax,  # one thread, heaviest vertex
                )
                # Kernel 2: mark chosen edges + hook components.
                device.launch(
                    "mark",
                    items=n,
                    cycles=n * _MARK_CYCLES,
                    bytes_=16.0 * n,
                    atomics=int(rnd.winner_eids.size),
                )
                # Connected components are *recomputed from scratch*
                # over the accumulated tree each round (hook +
                # pointer-jump until flat), a kernel per step with a
                # converged-flag copy back to the host — the
                # memcpy-while-loop pattern Pai & Pingali flag.
                import math

                merged = n - rnd.num_components
                cc_iters = 2 + max(1, int(math.log2(max(2, merged + 1))))
                for _ in range(cc_iters):
                    device.launch(
                        "recompute_cc",
                        items=n,
                        cycles=n * _PROP_VERTEX_CYCLES,
                        bytes_=12.0 * n,
                    )
                    device.host_sync()
                device.host_sync()  # outer-loop stopping condition

            if rnd.cross_edges == 0 or rnd.num_components == 1:
                comp = rnd.new_comp
                break
            comp = rnd.new_comp
            # A vertex stays active while any incident slot crosses
            # components.
            cross_slot = comp[src] != comp[dst]
            active = np.zeros(n, dtype=bool)
            active[src[cross_slot]] = True
            if not active.any():
                break

    sel_w = np.zeros(graph.num_edges, dtype=np.int64)
    sel_w[eid] = w
    total = int(sel_w[in_mst].sum()) if in_mst.any() else 0
    return MstResult(
        graph=graph,
        in_mst=in_mst,
        total_weight=total,
        num_mst_edges=int(np.count_nonzero(in_mst)),
        rounds=rounds,
        modeled_seconds=device.elapsed_seconds,
        counters=device.counters,
        algorithm="jucele-gpu",
    )
