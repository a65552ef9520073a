"""Single-linkage clustering via MST (tumor-recognition motivation).

Cutting the ``k - 1`` heaviest edges of an MST yields exactly the
``k``-cluster single-linkage partition — the classic equivalence the
paper's medical-diagnostics citation (Brinkhuis et al.) builds on.
"""

from __future__ import annotations

import numpy as np

from ..core.eclmst import ecl_mst
from ..core.result import MstResult
from ..graph.csr import CSRGraph
from ..graph.properties import components

__all__ = ["single_linkage_labels"]


def single_linkage_labels(
    graph: CSRGraph, k: int, *, result: MstResult | None = None
) -> np.ndarray:
    """``k``-cluster single-linkage labels for the vertices of ``graph``.

    Parameters
    ----------
    graph:
        Weighted similarity/distance graph (lower weight = closer).
    k:
        Number of clusters; must be at least the number of connected
        components (components can never merge).
    result:
        Optional precomputed MSF of ``graph`` (saves recomputation when
        sweeping ``k``).

    Returns
    -------
    labels:
        ``(num_vertices,)`` array of cluster IDs in ``[0, k')`` where
        ``k'`` equals ``k`` (or the component count if larger).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if result is None:
        result = ecl_mst(graph)
    u, v, w = result.edges()
    n = graph.num_vertices
    cuts = max(0, min(u.size, result.num_mst_edges - (n - k)))
    # Keep all MSF edges except the `cuts` heaviest.
    keep = np.argsort(w, kind="stable")[: u.size - cuts] if cuts else np.arange(u.size)
    _, labels = components(n, u[keep], v[keep])
    return labels
