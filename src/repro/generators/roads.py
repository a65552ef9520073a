"""Road-network-like graphs (USA-road-d.NY / .USA / europe_osm analogs).

Road maps are near-planar, have very low average degree (2.1-2.8 in
Table 2), tiny maximum degree (8-13), a single connected component,
huge diameter, and distance weights (the ``-d`` DIMACS variants).  We
reproduce those properties by construction:

1. scatter ``n`` points uniformly in the unit square,
2. Delaunay-triangulate them (planar candidate edge set),
3. take the *Euclidean MST* of the triangulation as the backbone —
   always connected, maximum degree ≤ 6 (the standard EMST
   construction: an ordinary MSF over the Delaunay edges ranked by
   (length, index)),
4. add the shortest remaining triangulation edges (with a little
   jitter so the selection isn't purely radial) until the target
   average degree is met,
5. weight every edge by its scaled Euclidean length.

The large diameter that makes road networks the *round-count* stress
test for Borůvka-style codes emerges from the spatial locality.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay

from ..graph.build import from_edge_arrays
from ..graph.csr import CSRGraph
from ..graph.properties import spanning_forest

__all__ = ["road_network"]


def _delaunay_edges(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    tri = Delaunay(points)
    s = tri.simplices
    lo = np.concatenate([s[:, 0], s[:, 1], s[:, 2]]).astype(np.int64)
    hi = np.concatenate([s[:, 1], s[:, 2], s[:, 0]]).astype(np.int64)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    key = lo * points.shape[0] + hi
    _, uniq = np.unique(key, return_index=True)
    return lo[uniq], hi[uniq]


def _euclidean_mst_mask(
    points: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """MSF of the candidate edges by (length, index); True = backbone edge."""
    lengths = np.linalg.norm(points[lo] - points[hi], axis=1)
    order = np.argsort(lengths, kind="stable")
    return spanning_forest(points.shape[0], lo, hi, order)


def road_network(
    num_vertices: int,
    *,
    target_avg_degree: float = 2.5,
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """Build a connected road-map-like graph.

    ``target_avg_degree`` is the directed-slot average degree from
    Table 2 (2.1 for europe_osm, 2.4 for USA, 2.8 for NY); it must be
    at least ``2 (n - 1) / n`` since the backbone tree is always kept.
    """
    if num_vertices < 3:
        raise ValueError("need at least 3 vertices")
    rng = np.random.default_rng(seed)
    points = rng.random((num_vertices, 2))
    lo, hi = _delaunay_edges(points)
    backbone = _euclidean_mst_mask(points, lo, hi)

    target_edges = max(
        num_vertices - 1, int(round(target_avg_degree * num_vertices / 2))
    )
    extra_needed = target_edges - int(np.count_nonzero(backbone))
    if extra_needed > 0:
        cand = np.flatnonzero(~backbone)
        lengths = np.linalg.norm(points[lo[cand]] - points[hi[cand]], axis=1)
        # Jitter the ranking so the extras aren't purely the shortest
        # (real road grids mix short blocks with longer connectors).
        jitter = rng.random(cand.size) * float(lengths.mean())
        pick = cand[np.argsort(lengths + jitter)[:extra_needed]]
        keep = backbone.copy()
        keep[pick] = True
    else:
        keep = backbone

    lo, hi = lo[keep], hi[keep]
    d = np.linalg.norm(points[lo] - points[hi], axis=1)
    w = np.maximum(1, (d * 1_000_000).astype(np.int64))
    return from_edge_arrays(
        num_vertices, lo, hi, w, name=name or f"road-{num_vertices}"
    )
