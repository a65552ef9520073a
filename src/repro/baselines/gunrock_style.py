"""Gunrock-style baseline (Wang et al., Essentials MST).

Gunrock's MST is **vertex-centric and topology-driven**: it "checks all
vertices and evaluates an edge if its source and destination do not
belong to the same connected component", rescanning the whole graph
every round.  It "relies on the input having only a single connected
component and, therefore, cannot generate an MSF" — multi-component
inputs are the NC cells of Tables 3/4.
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

__all__ = ["gunrock_mst"]

_NEIGHBOR_CYCLES = 7.0
_VERTEX_CYCLES = 10.0  # frontier bookkeeping per vertex
_PROP_VERTEX_CYCLES = 3.0


def gunrock_mst(
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
            f"{graph.name} has {n_cc} components; Gunrock computes MSTs only"
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
    m_slots = graph.num_directed_edges

    comp = np.arange(n, dtype=np.int64)
    in_mst = np.zeros(graph.num_edges, dtype=bool)
    rounds = 0

    with tracer.span(
        f"gunrock on {graph.name}",
        "run",
        algorithm="gunrock-gpu",
        graph=graph.name,
        vertices=n,
        edges=graph.num_edges,
    ):
        while True:
            rounds += 1
            with tracer.span(f"round {rounds}", "round"):
                rnd = boruvka_round(src, dst, w, eid, comp, tracer=tracer)
                in_mst[rnd.winner_eids] = True

                device.launch(
                    "advance_min_edge",
                    items=m_slots,
                    cycles=thread_mode_cycles(degrees, _NEIGHBOR_CYCLES)
                    + n * _VERTEX_CYCLES,
                    bytes_=26.0 * m_slots + 8.0 * n,
                    atomics=2 * rnd.cross_edges,
                    atomic_max_contention=min(rnd.atomic_contention, dmax),
                    critical_items=dmax,
                )
                device.launch(
                    "filter_mark",
                    items=n,
                    cycles=n * 5.0,
                    bytes_=16.0 * n,
                    atomics=int(rnd.winner_eids.size),
                )
                # Generic advance/filter pipeline: the framework
                # materializes an explicit frontier between operators
                # each round.
                device.launch(
                    "frontier_compact",
                    items=m_slots,
                    cycles=4.0 * m_slots,
                    bytes_=8.0 * m_slots + 8.0 * n,
                )
                # Label resolution runs a CC subroutine from scratch
                # over the accumulated tree (hook + jump until flat),
                # one operator launch per step, each with the
                # framework's host round trip.
                import math

                merged = n - rnd.num_components
                cc_iters = 2 + max(1, int(math.log2(max(2, merged + 1))))
                for _ in range(cc_iters):
                    device.launch(
                        "label_propagation",
                        items=n,
                        cycles=n * _PROP_VERTEX_CYCLES,
                        bytes_=12.0 * n,
                    )
                    device.host_sync()
                device.host_sync()  # advance/filter frontier bookkeeping
                device.host_sync()  # outer-loop stopping condition

            comp = rnd.new_comp
            if rnd.num_components == 1 or rnd.cross_edges == 0:
                break

    table = np.zeros(graph.num_edges, dtype=np.int64)
    table[eid] = w
    total = int(table[in_mst].sum()) if in_mst.any() else 0
    return MstResult(
        graph=graph,
        in_mst=in_mst,
        total_weight=total,
        num_mst_edges=int(np.count_nonzero(in_mst)),
        rounds=rounds,
        modeled_seconds=device.elapsed_seconds,
        counters=device.counters,
        algorithm="gunrock-gpu",
    )
