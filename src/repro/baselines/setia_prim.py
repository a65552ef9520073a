"""Setia et al.'s parallel Prim (HiPC'09) — related-work CPU baseline.

"Worker threads start at a different random vertex and build a tree
from that vertex outward.  When the threads collide, the thread with
the higher ID is killed and its tree is merged with that of the thread
with the lower ID.  The algorithm takes advantage of the cut property
to merge the trees correctly.  Their code makes use of critical
sections to perform the tree merging" — which is the contrast the
paper draws with ECL-MST's lock-free atomics.

Correctness here rests on the cut property with unique keys: the
minimum-key edge leaving *any* vertex set belongs to the unique MSF, so
each surviving thread may safely commit its tree's minimum outgoing
edge, whether it reaches unclaimed territory or another thread's tree
(a collision, triggering a merge).

The simulation executes the threads round-robin (one tree-growth step
per live thread per round) and prices the rounds on the CPU model,
charging a critical-section serialization cost per merge.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.result import MstResult
from ..dsu.arrays import Compression, DisjointSet
from ..graph.csr import CSRGraph
from ..gpusim.costmodel import CpuMachine
from ..gpusim.spec import CPUSpec, XEON_GOLD_6226R_X2

__all__ = ["setia_prim_mst"]

_HEAP_OPS = 35.0  # pop/push on a shared-memory heap, cache-hostile
_EDGE_OPS = 12.0
_MERGE_LOCK_OPS = 900.0  # critical-section acquire + tree handover
_ROUND_SYNC = 1


def setia_prim_mst(
    graph: CSRGraph,
    *,
    cpu: CPUSpec = XEON_GOLD_6226R_X2,
    threads: int = 0,
    seed: int = 0,
) -> MstResult:
    """Compute the MSF with multi-start parallel Prim.

    ``threads`` worker trees start at random vertices (default: the
    CPU's core count).  Supports MSF: exhausted regions simply leave
    their trees in place and idle threads restart on unclaimed
    vertices.
    """
    machine = CpuMachine(cpu, threads)
    n_threads = machine.threads
    n = graph.num_vertices
    rng = np.random.default_rng(seed)

    row_ptr, col = graph.row_ptr, graph.col_idx
    w, eids = graph.weights, graph.edge_ids

    owner = np.full(n, -1, dtype=np.int64)  # vertex -> tree id
    trees = DisjointSet(n_threads + n, Compression.HALVING)

    in_mst = np.zeros(graph.num_edges, dtype=bool)
    heaps: dict[int, list] = {}
    alive: list[int] = []
    next_tree_id = 0
    unvisited_cursor = 0

    heap_ops = 0
    edge_scans = 0
    merges = 0
    rounds = 0

    def spawn(start: int) -> None:
        nonlocal next_tree_id, heap_ops, edge_scans
        tid = next_tree_id
        next_tree_id += 1
        owner[start] = tid
        h: list = []
        for j in range(row_ptr[start], row_ptr[start + 1]):
            heapq.heappush(h, (int(w[j]), int(eids[j]), int(col[j])))
            heap_ops += 1
        edge_scans += int(row_ptr[start + 1] - row_ptr[start])
        heaps[tid] = h
        alive.append(tid)

    # Random distinct starting vertices, one per worker.
    starts = rng.choice(n, size=min(n_threads, n), replace=False)
    for s in starts:
        spawn(int(s))

    while True:
        rounds += 1
        progressed = False
        for tid in list(alive):
            root = trees.find(tid)
            if root != tid:
                if tid in alive:
                    alive.remove(tid)  # killed by a merge this round
                continue
            h = heaps.get(tid)
            if not h:
                if tid in alive:
                    alive.remove(tid)
                continue
            # One growth step: the tree's minimum outgoing edge.
            while h:
                wt, eid, v = heapq.heappop(h)
                heap_ops += 1
                v_owner = owner[v]
                if v_owner != -1 and trees.find(int(v_owner)) == tid:
                    continue  # internal edge, discard
                progressed = True
                in_mst[eid] = True
                if v_owner == -1:
                    # Expansion into unclaimed territory.
                    owner[v] = tid
                    for j in range(row_ptr[v], row_ptr[v + 1]):
                        heapq.heappush(
                            h, (int(w[j]), int(eids[j]), int(col[j]))
                        )
                        heap_ops += 1
                    edge_scans += int(row_ptr[v + 1] - row_ptr[v])
                else:
                    # Collision: merge into the lower-ID tree (critical
                    # section in the original code).
                    other = trees.find(int(v_owner))
                    trees.union(tid, other)
                    survivor, victim = min(tid, other), max(tid, other)
                    merged = heaps.pop(victim, [])
                    if len(merged) > len(heaps[survivor]):
                        merged, heaps[survivor] = heaps[survivor], merged
                    for item in merged:
                        heapq.heappush(heaps[survivor], item)
                        heap_ops += 1
                    merges += 1
                    if victim in alive:
                        alive.remove(victim)
                    if survivor not in alive:
                        alive.append(survivor)
                break
        if not progressed:
            # All live trees exhausted; restart on unclaimed vertices
            # (MSF support) or finish.
            while unvisited_cursor < n and owner[unvisited_cursor] != -1:
                unvisited_cursor += 1
            if unvisited_cursor >= n:
                break
            spawn(unvisited_cursor)

    log_v = max(1.0, np.log2(max(n, 2)))
    machine.phase(
        "parallel_prim",
        ops=_HEAP_OPS * heap_ops * log_v / 8.0 + _EDGE_OPS * edge_scans,
        bytes_=16.0 * heap_ops + 8.0 * edge_scans,
        items=edge_scans,
        syncs=rounds * _ROUND_SYNC,
    )
    machine.phase(
        "tree_merges",
        ops=_MERGE_LOCK_OPS * merges,
        bytes_=8.0 * merges,
        items=merges,
        serial=True,  # critical sections serialize
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
        algorithm="setia-prim",
        extra={"merges": merges, "threads": n_threads},
    )
