"""PBBS parallel MST (Blelloch et al., "Internally deterministic
parallel algorithms can be fast", PPoPP'12).

The strategy ECL-MST's parallelization converged to (Section 3.1), on
the CPU: sample ``|E| / sqrt(|E|)`` edge weights to approximate the
``k``-th smallest with ``k = min(|V|, 5|E|/4)``, sort only that light
chunk, and execute Kruskal's iterations out of order with
**deterministic reservations** — within a block of the sorted prefix,
an edge commits only when it holds the minimum reservation (here: the
lowest index, which in a sorted block equals the lightest key) of both
endpoint components.  If the forest is incomplete, the heavy remainder
is filtered (cycle edges dropped) and processed the same way.
"""

from __future__ import annotations

import numpy as np

from ..core.result import MstResult
from ..dsu.vectorized import find_many, link_winners
from ..graph.csr import CSRGraph
from ..gpusim.atomics import KEY_INFINITY, pack_keys
from ..gpusim.costmodel import CpuMachine
from ..gpusim.spec import CPUSpec, XEON_GOLD_6226R_X2

__all__ = ["pbbs_parallel_mst"]

_SORT_CMP_OPS = 45.0
_RESERVE_EDGE_OPS = 45.0  # per edge per reservation round
_FIND_LOAD_OPS = 30.0  # parallel finds hit cache better than serial scan
_COMMIT_OPS = 75.0
_FILTER_EDGE_OPS = 30.0
_SAMPLE_OPS = 12.0


def _reserve_and_commit(
    machine: CpuMachine,
    parent: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    eid: np.ndarray,
    keys: np.ndarray,
    in_mst: np.ndarray,
    block_size: int,
) -> int:
    """Process a sorted chunk block-by-block with deterministic
    reservations; returns the number of rounds (parallel steps)."""
    n = parent.size
    reservation = np.full(n, KEY_INFINITY, dtype=np.uint64)
    rounds = 0
    start = 0
    while start < u.size:
        stop = min(start + block_size, u.size)
        live = np.arange(start, stop, dtype=np.int64)
        while live.size:
            rounds += 1
            p, loads_p = find_many(parent, u[live])
            q, loads_q = find_many(parent, v[live])
            cross = p != q
            live, p, q = live[cross], p[cross], q[cross]
            k = keys[live]
            # Reserve: lowest key wins each endpoint component.
            touched = np.unique(np.concatenate([p, q]))
            np.minimum.at(reservation, p, k)
            np.minimum.at(reservation, q, k)
            win = (k == reservation[p]) | (k == reservation[q])
            # Commit winners in order (they are acyclic).
            linked = link_winners(parent, p, q, np.flatnonzero(win))
            in_mst[eid[live[linked]]] = True
            reservation[touched] = KEY_INFINITY
            machine.phase(
                "reserve_commit",
                ops=_RESERVE_EDGE_OPS * live.size
                + _FIND_LOAD_OPS * (loads_p + loads_q)
                + _COMMIT_OPS * int(np.count_nonzero(win)),
                bytes_=24.0 * live.size,
                items=int(live.size),
                syncs=1,
            )
            live = live[~win]
        start = stop
    return rounds


def pbbs_parallel_mst(
    graph: CSRGraph,
    *,
    cpu: CPUSpec = XEON_GOLD_6226R_X2,
    threads: int = 0,
    block_size: int | None = None,
) -> MstResult:
    """Compute the MSF with the PBBS strategy on the CPU model."""
    machine = CpuMachine(cpu, threads)
    u, v, w, eid = graph.undirected_edges()
    m = u.size
    n = graph.num_vertices
    in_mst = np.zeros(graph.num_edges, dtype=bool)
    parent = np.arange(n, dtype=np.int64)
    if m == 0:
        return _finish(graph, in_mst, machine, 0)
    keys = pack_keys(w, eid)
    if block_size is None:
        block_size = max(256, n // 8)

    # Sample-estimate the k-th smallest key, k = min(|V|, 5|E|/4).
    k_target = min(n, (5 * m) // 4)
    rng = np.random.default_rng(0)
    n_samples = max(1, int(np.sqrt(m)))
    sample = np.sort(keys[rng.integers(0, m, size=n_samples)])
    q_idx = min(n_samples - 1, int(np.ceil(k_target / m * n_samples)))
    threshold = sample[q_idx]
    machine.phase(
        "sample", ops=_SAMPLE_OPS * n_samples, bytes_=8.0 * n_samples, items=n_samples, syncs=1
    )

    light = np.flatnonzero(keys <= threshold)
    heavy = np.flatnonzero(keys > threshold)
    machine.phase(
        "partition", ops=4.0 * m, bytes_=8.0 * m, items=m, syncs=1
    )

    rounds = 0
    order = light[np.argsort(keys[light])]
    machine.phase(
        "sort_light",
        ops=_SORT_CMP_OPS * order.size * max(1.0, np.log2(max(order.size, 2))),
        bytes_=24.0 * order.size,
        items=int(order.size),
        syncs=1,
    )
    rounds += _reserve_and_commit(
        machine, parent, u[order], v[order], eid[order], keys[order], in_mst, block_size
    )

    if heavy.size:
        # Filter the heavy remainder (parallel cycle checks), then sort
        # and process what survives.
        p, lp = find_many(parent, u[heavy])
        q, lq = find_many(parent, v[heavy])
        keep = heavy[p != q]
        machine.phase(
            "filter",
            ops=_FILTER_EDGE_OPS * heavy.size + _FIND_LOAD_OPS * (lp + lq),
            bytes_=16.0 * heavy.size,
            items=int(heavy.size),
            syncs=1,
        )
        if keep.size:
            order = keep[np.argsort(keys[keep])]
            machine.phase(
                "sort_heavy",
                ops=_SORT_CMP_OPS * order.size * max(1.0, np.log2(max(order.size, 2))),
                bytes_=24.0 * order.size,
                items=int(order.size),
                syncs=1,
            )
            rounds += _reserve_and_commit(
                machine,
                parent,
                u[order],
                v[order],
                eid[order],
                keys[order],
                in_mst,
                block_size,
            )

    return _finish(graph, in_mst, machine, rounds)


def _finish(graph: CSRGraph, in_mst, machine, rounds) -> MstResult:
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
        algorithm="pbbs-parallel",
    )
