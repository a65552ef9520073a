"""Serial Kruskal baselines: plain ("PBBS Serial" analog), Brennan's
qKruskal, and Osipov et al.'s Filter-Kruskal.

These are the classic CPU comparators of Section 2.  All three share
the DSU scan; they differ in how much of the edge list they sort:

* **kruskal** — full sort, then one scan (what the paper's "PBBS Ser."
  column measures, and what ECL-MST's built-in verification uses).
* **qkruskal** — partition around a pivot, sort and process the light
  half, and only sort the heavy half if the forest is not complete.
* **filter_kruskal** — recursive partitioning; before descending into
  a heavy half, *filter* out the edges whose endpoints are already
  connected (cycle checks are cheaper than sorting).  ECL-MST's
  one-shot filtering is this idea reduced to a single sampled split.
"""

from __future__ import annotations

import numpy as np

from ..core.result import MstResult
from ..dsu.arrays import Compression, DisjointSet
from ..graph.csr import CSRGraph
from ..gpusim.atomics import pack_keys
from ..gpusim.costmodel import CpuMachine
from ..gpusim.spec import CPUSpec, XEON_GOLD_6226R_X2

__all__ = ["kruskal_serial_mst", "qkruskal_mst", "filter_kruskal_mst"]

# Serial per-operation prices (cycles): sorting 12-byte records and
# chasing union-find parents are both cache-unfriendly at MST scales.
_SORT_CMP_OPS = 45.0
_SCAN_EDGE_OPS = 25.0
_FIND_LOAD_OPS = 70.0
_UNION_OPS = 60.0
_PARTITION_OPS = 14.0
_FILTER_EDGE_OPS = 20.0


def _scan_sorted(
    dsu: DisjointSet,
    u: np.ndarray,
    v: np.ndarray,
    eid: np.ndarray,
    in_mst: np.ndarray,
    needed: int,
) -> int:
    """Process edges in the given order; returns edges added."""
    added = 0
    for i in range(u.size):
        if dsu.unions >= needed:
            break
        if dsu.union(int(u[i]), int(v[i])):
            in_mst[eid[i]] = True
            added += 1
    return added


def _finish(graph: CSRGraph, in_mst, machine, algo, rounds=1) -> MstResult:
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
        algorithm=algo,
    )


def _max_tree_edges(graph: CSRGraph) -> int:
    """|V| - (#components) — the scan can stop once the forest is full."""
    from ..graph.properties import connected_components

    n_cc, _ = connected_components(graph)
    return graph.num_vertices - n_cc


def kruskal_serial_mst(
    graph: CSRGraph, *, cpu: CPUSpec = XEON_GOLD_6226R_X2
) -> MstResult:
    """Plain serial Kruskal with a full edge sort (the "PBBS Ser." row)."""
    machine = CpuMachine(cpu)
    u, v, w, eid = graph.undirected_edges()
    m = u.size
    order = np.argsort(pack_keys(w, eid))
    machine.phase(
        "sort",
        ops=_SORT_CMP_OPS * m * max(1.0, np.log2(max(m, 2))),
        bytes_=24.0 * m,
        items=m,
        serial=True,
    )
    dsu = DisjointSet(graph.num_vertices, Compression.FULL)
    in_mst = np.zeros(graph.num_edges, dtype=bool)
    needed = _max_tree_edges(graph)
    _scan_sorted(dsu, u[order], v[order], eid[order], in_mst, needed)
    machine.phase(
        "scan",
        ops=_SCAN_EDGE_OPS * m + _FIND_LOAD_OPS * dsu.find_loads + _UNION_OPS * dsu.unions,
        bytes_=12.0 * m + 8.0 * dsu.find_loads,
        items=m,
        serial=True,
    )
    return _finish(graph, in_mst, machine, "kruskal-serial")


def qkruskal_mst(graph: CSRGraph, *, cpu: CPUSpec = XEON_GOLD_6226R_X2) -> MstResult:
    """Brennan's qKruskal: sort the light partition first, the heavy
    partition only if the forest is still incomplete."""
    machine = CpuMachine(cpu)
    u, v, w, eid = graph.undirected_edges()
    m = u.size
    in_mst = np.zeros(graph.num_edges, dtype=bool)
    dsu = DisjointSet(graph.num_vertices, Compression.FULL)
    needed = _max_tree_edges(graph)
    if m == 0:
        return _finish(graph, in_mst, machine, "qkruskal")

    keys = pack_keys(w, eid)
    pivot = np.partition(keys, m // 2)[m // 2]
    machine.phase(
        "partition", ops=_PARTITION_OPS * m, bytes_=12.0 * m, items=m, serial=True
    )
    light = keys <= pivot
    rounds = 0
    for half in (light, ~light):
        idx = np.flatnonzero(half)
        if idx.size == 0 or dsu.unions >= needed:
            break
        rounds += 1
        k = idx.size
        order = idx[np.argsort(keys[idx])]
        machine.phase(
            "sort_half",
            ops=_SORT_CMP_OPS * k * max(1.0, np.log2(max(k, 2))),
            bytes_=24.0 * k,
            items=k,
            serial=True,
        )
        loads0, unions0 = dsu.find_loads, dsu.unions
        _scan_sorted(dsu, u[order], v[order], eid[order], in_mst, needed)
        machine.phase(
            "scan_half",
            ops=_SCAN_EDGE_OPS * k
            + _FIND_LOAD_OPS * (dsu.find_loads - loads0)
            + _UNION_OPS * (dsu.unions - unions0),
            bytes_=12.0 * k,
            items=k,
            serial=True,
        )
    return _finish(graph, in_mst, machine, "qkruskal", rounds=rounds)


def filter_kruskal_mst(
    graph: CSRGraph,
    *,
    cpu: CPUSpec = XEON_GOLD_6226R_X2,
    base_size: int | None = None,
) -> MstResult:
    """Osipov et al.'s Filter-Kruskal (recursive partition + filter)."""
    machine = CpuMachine(cpu)
    u, v, w, eid = graph.undirected_edges()
    in_mst = np.zeros(graph.num_edges, dtype=bool)
    dsu = DisjointSet(graph.num_vertices, Compression.FULL)
    needed = _max_tree_edges(graph)
    if base_size is None:
        base_size = max(64, graph.num_vertices // 4)
    keys = pack_keys(w, eid)

    def kruskal_base(idx: np.ndarray) -> None:
        order = idx[np.argsort(keys[idx])]
        k = idx.size
        machine.phase(
            "sort_base",
            ops=_SORT_CMP_OPS * k * max(1.0, np.log2(max(k, 2))),
            bytes_=24.0 * k,
            items=k,
            serial=True,
        )
        loads0, unions0 = dsu.find_loads, dsu.unions
        _scan_sorted(dsu, u[order], v[order], eid[order], in_mst, needed)
        machine.phase(
            "scan_base",
            ops=_SCAN_EDGE_OPS * k
            + _FIND_LOAD_OPS * (dsu.find_loads - loads0)
            + _UNION_OPS * (dsu.unions - unions0),
            bytes_=12.0 * k,
            items=k,
            serial=True,
        )

    def recurse(idx: np.ndarray) -> None:
        if dsu.unions >= needed or idx.size == 0:
            return
        if idx.size <= base_size:
            kruskal_base(idx)
            return
        pivot = np.partition(keys[idx], idx.size // 2)[idx.size // 2]
        machine.phase(
            "partition",
            ops=_PARTITION_OPS * idx.size,
            bytes_=12.0 * idx.size,
            items=idx.size,
            serial=True,
        )
        light = idx[keys[idx] <= pivot]
        heavy = idx[keys[idx] > pivot]
        recurse(light)
        if dsu.unions >= needed:
            return
        # Filter: drop heavy edges already inside one component.
        loads0 = dsu.find_loads
        keep_mask = np.fromiter(
            (dsu.find(int(u[i])) != dsu.find(int(v[i])) for i in heavy),
            dtype=bool,
            count=heavy.size,
        )
        machine.phase(
            "filter",
            ops=_FILTER_EDGE_OPS * heavy.size + _FIND_LOAD_OPS * (dsu.find_loads - loads0),
            bytes_=12.0 * heavy.size,
            items=heavy.size,
            serial=True,
        )
        recurse(heavy[keep_mask])

    recurse(np.arange(u.size, dtype=np.int64))
    return _finish(graph, in_mst, machine, "filter-kruskal")
