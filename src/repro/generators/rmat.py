"""RMAT and Kronecker (Graph500-style) generators.

Covers the paper's ``rmat16.sym``, ``rmat22.sym`` and
``kron_g500-logn21`` inputs.  RMAT recursively subdivides the adjacency
matrix into quadrants chosen with probabilities ``(a, b, c, d)``; the
Graph500 Kronecker generator is RMAT with ``(0.57, 0.19, 0.19, 0.05)``.
Both produce heavy-tailed degree distributions and — crucially for the
MSF-vs-MST distinction the paper draws — many connected components,
because low-ID-biased sampling leaves a large fraction of vertices
isolated (kron_g500-logn21 has 553k components out of 2.1M vertices).
"""

from __future__ import annotations

import numpy as np

from ..graph.build import build_csr
from ..graph.csr import CSRGraph
from ..graph.weights import hash_weight

__all__ = ["rmat_graph", "kronecker"]


def _rmat_pairs(
    scale: int,
    num_edges: int,
    a: float,
    b: float,
    c: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``num_edges`` (u, v) pairs from the RMAT distribution.

    Fully vectorized: one pass per bit of ``scale``, each drawing a
    quadrant for all edges at once.
    """
    u = np.zeros(num_edges, dtype=np.int64)
    v = np.zeros(num_edges, dtype=np.int64)
    ab = a + b
    abc = a + b + c
    for bit in range(scale - 1, -1, -1):
        r = rng.random(num_edges)
        # Quadrants: a -> (0,0), b -> (0,1), c -> (1,0), d -> (1,1).
        go_down = r >= ab  # c or d quadrant sets the row bit
        go_right = (r >= a) & (r < ab) | (r >= abc)  # b or d sets the column bit
        u |= go_down.astype(np.int64) << bit
        v |= go_right.astype(np.int64) << bit
    return u, v


def rmat_graph(
    scale: int,
    edge_factor: float = 8.0,
    *,
    a: float = 0.45,
    b: float = 0.22,
    c: float = 0.22,
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """RMAT graph with ``2**scale`` vertices and ``edge_factor * n`` samples.

    Default quadrant probabilities follow the classic RMAT paper; the
    resulting cleaned graph has a power-law-ish degree distribution and
    typically thousands of small components, like rmat16/rmat22.sym.
    """
    n = 1 << scale
    m = int(edge_factor * n)
    rng = np.random.default_rng(seed)
    u, v = _rmat_pairs(scale, m, a, b, c, rng)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    w = hash_weight(lo, hi, seed=seed)
    return build_csr(n, lo, hi, w, name=name or f"rmat{scale}.sym")


def kronecker(
    scale: int,
    edge_factor: float = 16.0,
    *,
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """Graph500 Kronecker graph (``kron_g500-lognN``-style).

    Uses the Graph500 parameters ``(a, b, c) = (0.57, 0.19, 0.19)`` and
    a random vertex permutation, as the reference generator does, so
    degree is decoupled from vertex ID.
    """
    n = 1 << scale
    m = int(edge_factor * n)
    rng = np.random.default_rng(seed)
    u, v = _rmat_pairs(scale, m, 0.57, 0.19, 0.19, rng)
    perm = rng.permutation(n).astype(np.int64)
    u, v = perm[u], perm[v]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    w = hash_weight(lo, hi, seed=seed)
    return build_csr(n, lo, hi, w, name=name or f"kron_g500-logn{scale}")
