"""First-principles MSF validation, independent of the solver under test.

:mod:`repro.core.verify` checks a result against serial Kruskal; this
module validates a claimed MSF *from first principles*, the way an
artifact-evaluation checker would:

1. **forest** — the selected edges contain no cycle: an acyclic
   selection of ``k`` edges leaves exactly |V| − ``k`` components;
2. **spanning** — the selection has as many components as the graph,
   i.e. every component is fully connected by the selection;
3. **minimality** — the selection equals the unique minimum spanning
   forest under the ``weight:id`` keys.  Unique keys make the MSF
   unique, so equality is the full certificate of minimality; on a
   mismatch the lightest differing edge is named.

All three checks run in SciPy's compiled component labelling and
Kruskal (:func:`repro.graph.properties.components` and
:func:`~repro.graph.properties.spanning_forest`).
"""

from __future__ import annotations

import numpy as np

from ..graph.properties import components, connected_components, spanning_forest
from ..gpusim.atomics import pack_keys
from .result import MstResult

__all__ = ["validate_msf", "MsfValidationError"]


class MsfValidationError(AssertionError):
    """Raised when a claimed MSF fails a first-principles check."""


def validate_msf(result: MstResult) -> None:
    """Validate ``result`` from first principles; raise on violation."""
    graph = result.graph
    n = graph.num_vertices
    if result.in_mst.shape != (graph.num_edges,):
        raise MsfValidationError(
            f"malformed mask: in_mst has shape {result.in_mst.shape}, "
            f"expected ({graph.num_edges},)"
        )
    u, v, w, eid = graph.undirected_edges()
    sel = result.in_mst[eid]
    count = int(np.count_nonzero(sel))

    # --- forest: an acyclic selection has |V| - #components edges ----
    sel_cc, _ = components(n, u[sel], v[sel])
    if count != n - sel_cc:
        # Name the first selected edge (by ID) whose endpoints the
        # earlier ones already connect.
        kept = spanning_forest(n, u[sel], v[sel], np.arange(count))
        i = np.flatnonzero(sel)[np.argmin(kept)]
        raise MsfValidationError(
            f"cycle: selected edge ({u[i]}, {v[i]}) closes a loop"
        )

    # --- spanning: the selection connects what the graph connects ----
    n_cc, _ = connected_components(graph)
    if sel_cc != n_cc:
        raise MsfValidationError(
            f"not spanning: {count} edges selected, expected {n - n_cc} "
            f"(|V|={n}, components={n_cc})"
        )

    # --- minimality: the selection is the unique MSF -----------------
    order = np.argsort(pack_keys(w, eid))
    differs = sel != spanning_forest(n, u, v, order)
    if differs.any():
        i = order[np.argmax(differs[order])]  # lightest differing edge
        if sel[i]:
            raise MsfValidationError(
                f"non-minimal: selected edge ({u[i]}, {v[i]}, w={w[i]}) "
                "is dominated by lighter edges"
            )
        raise MsfValidationError(
            f"non-minimal: skipped edge ({u[i]}, {v[i]}, w={w[i]}) "
            "crosses a cut with no lighter selected edge"
        )

    # --- reported totals ---------------------------------------------
    true_weight = int(w[sel].sum()) if count else 0
    if result.total_weight != true_weight:
        raise MsfValidationError(
            f"weight mismatch: reported {result.total_weight}, "
            f"edges sum to {true_weight}"
        )
    if result.num_mst_edges != count:
        raise MsfValidationError(
            f"count mismatch: reported {result.num_mst_edges}, mask has {count}"
        )
