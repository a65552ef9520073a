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

__all__ = ["reference_mst_mask", "verify_mst", "VerificationError"]


def reference_mst_mask(graph: CSRGraph) -> np.ndarray:
    """Boolean per-edge-ID mask of the unique MSF, by serial Kruskal.

    Edges are ranked by packed key (weight, then edge ID — the same
    deterministic tie-break ECL-MST's atomicMin uses).
    """
    u, v, w, eid = graph.undirected_edges()
    order = np.argsort(pack_keys(w, eid))
    mask = np.zeros(graph.num_edges, dtype=bool)
    mask[eid] = spanning_forest(graph.num_vertices, u, v, order)
    return mask


def verify_mst(result: MstResult) -> None:
    """Check ``result`` against the serial reference; raise on mismatch."""
    graph = result.graph
    ref = reference_mst_mask(graph)
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
    # From the graph's cached per-edge-ID weight table, so the
    # reference builds the only undirected edge list of this verify.
    ref_weight = int(graph.edge_weight_table()[ref].sum(dtype=np.int64))
    if result.total_weight != ref_weight:
        raise VerificationError(
            f"total weight {result.total_weight} != reference {ref_weight}"
        )
    ref_count = int(np.count_nonzero(ref))
    if result.num_mst_edges != ref_count:
        raise VerificationError(
            f"edge count {result.num_mst_edges} != reference {ref_count}"
        )
