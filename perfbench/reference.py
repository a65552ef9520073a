"""Independent MSF reference for checking every benchmark operation.

Shares no code with the solver under test: the undirected edge list is
read straight from the CSR arrays, edges are ranked by the packed
(weight, edge-id) key, and SciPy's compiled
``minimum_spanning_tree`` runs over rank + 1.  Unique keys give a
unique MSF, so the reference is an exact edge set, not just a weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree


@dataclass(frozen=True)
class Reference:
    """The unique MSF of one input, as an edge-id mask plus summaries."""

    mask: np.ndarray  # bool per undirected edge id
    total_weight: int
    num_edges: int
    directed_edges: int  # the paper's throughput numerator


def msf_reference(graph) -> Reference:
    """Compute the MSF of a CSR graph with SciPy over (weight, eid) ranks."""
    n = int(graph.row_ptr.size - 1)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.row_ptr))
    dst = graph.col_idx.astype(np.int64)
    one_way = src < dst
    u, v = src[one_way], dst[one_way]
    w = graph.weights[one_way].astype(np.int64)
    eid = graph.edge_ids[one_way].astype(np.int64)
    m = int(u.size)
    pairs = np.sort(u * n + v)
    if np.any(pairs[1:] == pairs[:-1]):
        # COO -> CSR conversion would silently sum parallel edges.
        raise ValueError(f"{graph.name}: duplicate (u, v) pairs in the input")
    if not np.array_equal(np.sort(eid), np.arange(m)):
        raise ValueError(f"{graph.name}: edge ids are not a permutation")
    order = np.lexsort((eid, w))  # by weight, ties by edge id
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(1, m + 1, dtype=np.int64)
    adj = coo_matrix((rank.astype(np.float64), (u, v)), shape=(n, n)).tocsr()
    tree = minimum_spanning_tree(adj).tocoo()
    chosen = order[tree.data.astype(np.int64) - 1]
    mask = np.zeros(m, dtype=bool)
    mask[eid[chosen]] = True
    return Reference(
        mask=mask,
        total_weight=int(w[chosen].sum()),
        num_edges=int(chosen.size),
        directed_edges=int(graph.col_idx.size),
    )
