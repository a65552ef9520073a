"""ECL-MST-CPU — the paper's algorithm ported to the CPU model.

The conclusion hopes the work will "inspire other researchers to
devise faster and more parallel GPU *and CPU* implementations"; this
module is that future-work variant: the exact ECL-MST round structure
(worklist of surviving edges, guarded min-reservations, deterministic
commits, implicit path compression, one-shot filtering) executed as
OpenMP-style parallel loops and priced on the CPU model.

It shares no code path with :mod:`repro.core.eclmst` on purpose — it
serves as an independent second implementation of the algorithm, which
the test suite cross-checks edge-for-edge against the GPU version.
"""

from __future__ import annotations

import numpy as np

from ..core.config import EclMstConfig
from ..core.filtering import plan_filtering
from ..core.result import MstResult
from ..dsu.vectorized import find_many, link_winners
from ..graph.csr import CSRGraph
from ..gpusim.atomics import KEY_INFINITY, pack_keys
from ..gpusim.costmodel import CpuMachine
from ..gpusim.spec import CPUSpec, XEON_GOLD_6226R_X2

__all__ = ["ecl_mst_cpu"]

_EDGE_OPS = 18.0  # per worklist entry per round
_FIND_LOAD_OPS = 14.0
_COMMIT_OPS = 40.0
_POPULATE_OPS = 8.0


def _phase(
    machine: CpuMachine,
    parent: np.ndarray,
    min_edge: np.ndarray,
    in_mst: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    eid: np.ndarray,
) -> int:
    """One ECL phase: iterate reservation rounds until the worklist
    drains.  Returns the number of rounds."""
    rounds = 0
    while u.size:
        rounds += 1
        p, loads_p = find_many(parent, u)
        q, loads_q = find_many(parent, v)
        cross = p != q
        p, q = p[cross], q[cross]
        u, v, w, eid = u[cross], v[cross], w[cross], eid[cross]
        keys = pack_keys(w, eid)
        np.minimum.at(min_edge, p, keys)
        np.minimum.at(min_edge, q, keys)
        win = (keys == min_edge[p]) | (keys == min_edge[q])
        linked = link_winners(parent, p, q, np.flatnonzero(win))
        in_mst[eid[linked]] = True
        commits = linked.size
        min_edge[p] = KEY_INFINITY
        min_edge[q] = KEY_INFINITY
        # Implicit path compression: carry representatives forward.
        u, v = p, q
        machine.phase(
            "round",
            ops=_EDGE_OPS * u.size
            + _FIND_LOAD_OPS * (loads_p + loads_q)
            + _COMMIT_OPS * commits,
            bytes_=28.0 * u.size,
            items=int(u.size),
            syncs=3,  # reserve / commit / reset barriers
        )
    return rounds


def ecl_mst_cpu(
    graph: CSRGraph,
    config: EclMstConfig | None = None,
    *,
    cpu: CPUSpec = XEON_GOLD_6226R_X2,
    threads: int = 0,
) -> MstResult:
    """Compute the MSF with the ECL-MST algorithm on the CPU model."""
    config = config or EclMstConfig()
    machine = CpuMachine(cpu, threads)
    n = graph.num_vertices
    parent = np.arange(n, dtype=np.int64)
    min_edge = np.full(n, KEY_INFINITY, dtype=np.uint64)
    in_mst = np.zeros(graph.num_edges, dtype=bool)

    u, v, w, eid = graph.undirected_edges()
    plan = plan_filtering(graph, config)
    machine.phase(
        "populate",
        ops=_POPULATE_OPS * graph.num_directed_edges,
        bytes_=9.0 * graph.num_directed_edges,
        items=graph.num_directed_edges,
        syncs=1,
    )

    rounds = 0
    if plan.active:
        light = w < plan.threshold
        rounds += _phase(
            machine, parent, min_edge, in_mst,
            u[light].astype(np.int64), v[light].astype(np.int64),
            w[light].astype(np.int64), eid[light].astype(np.int64),
        )
        heavy = ~light
        hu, hv = u[heavy].astype(np.int64), v[heavy].astype(np.int64)
        # Filter: rewrite to representatives, drop internal edges.
        p, lp = find_many(parent, hu)
        q, lq = find_many(parent, hv)
        keep = p != q
        machine.phase(
            "filter",
            ops=_FIND_LOAD_OPS * (lp + lq) + 6.0 * hu.size,
            bytes_=16.0 * hu.size,
            items=int(hu.size),
            syncs=1,
        )
        rounds += _phase(
            machine, parent, min_edge, in_mst,
            p[keep], q[keep],
            w[heavy][keep].astype(np.int64), eid[heavy][keep].astype(np.int64),
        )
    else:
        rounds += _phase(
            machine, parent, min_edge, in_mst,
            u.astype(np.int64), v.astype(np.int64),
            w.astype(np.int64), eid.astype(np.int64),
        )

    table = np.zeros(graph.num_edges, dtype=np.int64)
    table[graph.edge_ids] = graph.weights
    total = int(table[in_mst].sum()) if in_mst.any() else 0
    return MstResult(
        graph=graph,
        in_mst=in_mst,
        total_weight=total,
        num_mst_edges=int(np.count_nonzero(in_mst)),
        rounds=rounds,
        modeled_seconds=machine.elapsed_seconds,
        counters=machine.counters,
        algorithm="ecl-mst-cpu",
        extra={"filter_plan": plan},
    )
