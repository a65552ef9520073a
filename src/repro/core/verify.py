"""Serial-Kruskal verification (Section 4).

The paper: *"The ECL-MST implementation verifies the solution at the
end of each run by comparing it to the solution of a serial
implementation of Kruskal's algorithm."*  Because the ``weight:edge-ID``
keys are unique, the MSF is *unique*, so verification can require the
exact same edge set, not merely the same total weight.  The serial
Kruskal here is SciPy's compiled one, run on the packed-key ranks; it
shares no code with the union engine under test.
"""

from __future__ import annotations

import numpy as np

from ..errors import VerificationError
from ..graph.csr import CSRGraph
from ..graph.properties import spanning_forest
from ..gpusim.atomics import pack_keys
from .result import MstResult

__all__ = ["reference_mst_mask", "reference_result", "verify_mst", "VerificationError"]


def reference_mst_mask(graph: CSRGraph) -> np.ndarray:
    """Boolean per-edge-ID mask of the unique MSF, by serial Kruskal.

    Edges are ranked by packed key (weight, then edge ID — the same
    deterministic tie-break ECL-MST's atomicMin uses).  The MSF depends
    only on the graph, so the mask is computed once per graph, cached
    on it and returned read-only: verify, the recovery ladder and the
    service's degraded answer all read this one copy.
    """
    mask = graph._reference_mask_cache
    if mask is None:
        u, v, w, eid = graph.undirected_edges()
        order = np.argsort(pack_keys(w, eid))
        mask = np.zeros(graph.num_edges, dtype=bool)
        mask[eid] = spanning_forest(graph.num_vertices, u, v, order)
        mask.flags.writeable = False
        graph._reference_mask_cache = mask
    return mask


def reference_result(graph: CSRGraph) -> MstResult:
    """The reference MSF as a result: no rounds and no modeled time."""
    mask = reference_mst_mask(graph)
    # From the graph's cached per-edge-ID weight table, so the
    # reference builds no second undirected edge list.
    return MstResult(
        graph,
        mask,
        total_weight=int(graph.edge_weight_table()[mask].sum(dtype=np.int64)),
        num_mst_edges=int(np.count_nonzero(mask)),
        rounds=0,
        modeled_seconds=0.0,
        algorithm="kruskal-reference",
    )


def verify_mst(result: MstResult) -> None:
    """Check ``result`` against the serial reference; raise on mismatch."""
    graph = result.graph
    reference = reference_result(graph)
    ref = reference.in_mst
    if result.in_mst.shape != ref.shape:
        raise VerificationError(
            f"edge mask has shape {result.in_mst.shape}, expected {ref.shape}"
        )
    if not np.array_equal(result.in_mst, ref):
        extra = int(np.count_nonzero(result.in_mst & ~ref))
        missing = int(np.count_nonzero(ref & ~result.in_mst))
        raise VerificationError(
            f"{result.algorithm} on {graph.name}: edge set differs from the "
            f"serial Kruskal reference ({extra} extra, {missing} missing)"
        )
    if result.total_weight != reference.total_weight:
        raise VerificationError(
            f"total weight {result.total_weight} != reference {reference.total_weight}"
        )
    if result.num_mst_edges != reference.num_mst_edges:
        raise VerificationError(
            f"edge count {result.num_mst_edges} != reference {reference.num_mst_edges}"
        )
