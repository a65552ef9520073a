"""Graph property computations backing Table 2 of the paper.

Table 2 lists, for every input: edge count, vertex count, type, number
of connected components, and average/maximum degree.  This module
computes those quantities plus the helpers the rest of the system needs:
component labelling and the unique minimum spanning forest under a given
edge ranking (the compiled reference that verification, validation, the
road generator and clustering share), and degree statistics for the
hybrid-parallelization and filtering decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _csgraph_components
from scipy.sparse.csgraph import minimum_spanning_tree

from .csr import CSRGraph

__all__ = [
    "GraphInfo",
    "components",
    "connected_components",
    "spanning_forest",
    "graph_info",
    "average_degree",
]


@dataclass(frozen=True)
class GraphInfo:
    """One Table-2 row."""

    name: str
    num_edges: int
    num_vertices: int
    kind: str
    num_components: int
    avg_degree: float
    max_degree: int

    def row(self) -> tuple:
        """Values in the paper's column order."""
        return (
            self.name,
            self.num_edges,
            self.num_vertices,
            self.kind,
            self.num_components,
            round(self.avg_degree, 1),
            self.max_degree,
        )


def components(n: int, u: np.ndarray, v: np.ndarray) -> tuple[int, np.ndarray]:
    """Label the components of the graph on ``n`` vertices with edges ``(u[i], v[i])``.

    Returns ``(count, labels)`` where ``labels[x]`` is a component ID in
    ``[0, count)``; components are numbered in order of their lowest
    vertex.
    """
    adj = coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    count, labels = _csgraph_components(adj, directed=False)
    return int(count), labels.astype(np.int64)


def spanning_forest(
    n: int, u: np.ndarray, v: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """Mask of the minimum spanning forest when edge ``order[r]`` has rank ``r``.

    Distinct ranks make the forest unique, so this is an exact edge-set
    reference.  Ranks ``+ 1`` become the weights handed to SciPy's
    compiled Kruskal (a zero would read as a missing edge), and the tree
    entries map back through ``order``.  Raises ``ValueError`` on a
    self-loop or a repeated ``(u, v)`` pair, since building the sparse
    matrix would sum parallel entries into one.
    """
    u, v, order = np.asarray(u), np.asarray(v), np.asarray(order)
    if np.any(u == v):
        raise ValueError("spanning_forest: self-loop in edge list")
    rank = np.empty(u.size, dtype=np.float64)
    rank[order] = np.arange(1, u.size + 1)
    adj = coo_matrix((rank, (u, v)), shape=(n, n)).tocsr()
    if adj.nnz != u.size:
        raise ValueError("spanning_forest: repeated (u, v) pair in edge list")
    tree = minimum_spanning_tree(adj, overwrite=True)
    mask = np.zeros(u.size, dtype=bool)
    mask[order[tree.data.astype(np.int64) - 1]] = True
    return mask


def connected_components(graph: CSRGraph) -> tuple[int, np.ndarray]:
    """Label connected components.

    Returns ``(count, labels)`` where ``labels[v]`` is a component ID in
    ``[0, count)``, numbered in order of each component's lowest vertex.
    """
    return components(graph.num_vertices, graph.edge_sources(), graph.col_idx)


def average_degree(graph: CSRGraph) -> float:
    """Mean directed-slot degree (the paper's ``d-avg`` column)."""
    n = graph.num_vertices
    return graph.num_directed_edges / n if n else 0.0


def graph_info(graph: CSRGraph, kind: str = "unknown") -> GraphInfo:
    """Compute a full Table-2 row for ``graph``."""
    degs = graph.degrees()
    count, _ = connected_components(graph)
    # Table 2 counts directed CSR slots (each undirected edge twice),
    # e.g. 2d-2e20.sym lists 4,190,208 edges for 1,048,576 vertices.
    return GraphInfo(
        name=graph.name,
        num_edges=graph.num_directed_edges,
        num_vertices=graph.num_vertices,
        kind=kind,
        num_components=count,
        avg_degree=average_degree(graph),
        max_degree=int(degs.max()) if degs.size else 0,
    )
