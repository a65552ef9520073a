"""Compressed sparse row (CSR) graph representation.

This mirrors the 32-bit binary CSR format used by the ECL graph codes
(https://cs.txstate.edu/~burtscher/research/ECLgraph/): an undirected
graph is stored as a directed graph in which every undirected edge
``{u, v}`` appears as the two directed edges ``(u, v)`` and ``(v, u)``.

Every *directed* edge slot carries the weight of the undirected edge
and an *undirected edge ID* shared by the two mirrored slots, so that
algorithms can refer to "the edge" independently of direction.  This is
exactly the identifier the 64-bit ``weight:id`` atomicMin keys in
ECL-MST are built from.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["CSRGraph"]

# Dtypes follow the ECL binary format: 32-bit indices and weights.
INDEX_DTYPE = np.int64  # row pointers may exceed 2^31 for large graphs
VERTEX_DTYPE = np.int32
WEIGHT_DTYPE = np.int32
EDGE_ID_DTYPE = np.int32


@dataclass
class CSRGraph:
    """An undirected weighted graph in CSR form.

    Attributes
    ----------
    row_ptr:
        ``(num_vertices + 1,)`` int64 array; neighbors of vertex ``v``
        occupy slots ``row_ptr[v]:row_ptr[v + 1]``.
    col_idx:
        ``(num_directed_edges,)`` int32 array of neighbor vertex IDs.
    weights:
        ``(num_directed_edges,)`` int32 array; both directions of an
        undirected edge carry the same weight.
    edge_ids:
        ``(num_directed_edges,)`` int32 array mapping each directed
        slot to its undirected edge ID in ``[0, num_edges)``.  Mirrored
        slots share one ID.
    name:
        optional human-readable name used in reports.
    """

    row_ptr: np.ndarray
    col_idx: np.ndarray
    weights: np.ndarray
    edge_ids: np.ndarray
    name: str = "graph"
    _degree_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _num_edges_cache: int | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _edge_weight_cache: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _digest_cache: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.row_ptr = np.ascontiguousarray(self.row_ptr, dtype=INDEX_DTYPE)
        self.col_idx = np.ascontiguousarray(self.col_idx, dtype=VERTEX_DTYPE)
        self.weights = np.ascontiguousarray(self.weights, dtype=WEIGHT_DTYPE)
        self.edge_ids = np.ascontiguousarray(self.edge_ids, dtype=EDGE_ID_DTYPE)
        if self.row_ptr.ndim != 1 or self.row_ptr.size == 0:
            raise ValueError("row_ptr must be a 1-D array of length num_vertices + 1")
        m = self.row_ptr[-1]
        if not (self.col_idx.size == self.weights.size == self.edge_ids.size == m):
            raise ValueError(
                "col_idx, weights and edge_ids must all have row_ptr[-1] "
                f"= {m} entries; got {self.col_idx.size}, {self.weights.size}, "
                f"{self.edge_ids.size}"
            )

    # ------------------------------------------------------------------
    # Size queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return int(self.row_ptr.size - 1)

    @property
    def num_directed_edges(self) -> int:
        """Number of directed edge slots (``2 |E|`` for undirected graphs)."""
        return int(self.col_idx.size)

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges ``|E|`` (cached)."""
        if self._num_edges_cache is None:
            self._num_edges_cache = (
                int(self.edge_ids.max()) + 1 if self.edge_ids.size else 0
            )
        return self._num_edges_cache

    # ------------------------------------------------------------------
    # Neighborhood access
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Per-vertex degree array (counts directed slots)."""
        if self._degree_cache is None:
            self._degree_cache = np.diff(self.row_ptr)
        return self._degree_cache

    def edge_weight_table(self) -> np.ndarray:
        """Weight per undirected edge ID (cached, read-only).

        Kept in the 32-bit weight dtype; sum it with an int64
        accumulator.
        """
        if self._edge_weight_cache is None:
            table = np.zeros(self.num_edges, dtype=WEIGHT_DTYPE)
            table[self.edge_ids] = self.weights
            table.flags.writeable = False
            self._edge_weight_cache = table
        return self._edge_weight_cache

    def digest(self) -> str:
        """Hex digest of the CSR arrays: topology and weights (cached).

        Equal digests mean the same weighted adjacency.  Like the other
        caches, it assumes the arrays are not mutated after first use.
        """
        if self._digest_cache is None:
            h = hashlib.blake2b(digest_size=8)
            for arr in (self.row_ptr, self.col_idx, self.weights):
                h.update(arr.tobytes())
            self._digest_cache = h.hexdigest()
        return self._digest_cache

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor vertex IDs of ``v`` (a view, do not mutate)."""
        return self.col_idx[self.row_ptr[v] : self.row_ptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights of the edges incident to ``v`` (a view)."""
        return self.weights[self.row_ptr[v] : self.row_ptr[v + 1]]

    def neighbor_edge_ids(self, v: int) -> np.ndarray:
        """Undirected edge IDs of the edges incident to ``v`` (a view)."""
        return self.edge_ids[self.row_ptr[v] : self.row_ptr[v + 1]]

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every directed slot (expanded from row_ptr)."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.degrees()
        )

    # ------------------------------------------------------------------
    # Undirected edge list
    # ------------------------------------------------------------------
    def undirected_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(u, v, w, eid)`` arrays with one entry per undirected edge.

        Only the ``u < v`` direction of each mirrored pair is returned,
        ordered by edge ID, which matches the "process edges in only one
        direction" convention of ECL-MST.
        """
        src = self.edge_sources()
        mask = src < self.col_idx
        u, v = src[mask], self.col_idx[mask]
        w, eid = self.weights[mask], self.edge_ids[mask]
        order = np.argsort(eid, kind="stable")
        return u[order], v[order], w[order], eid[order]

    def iter_edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Iterate ``(u, v, w, eid)`` tuples over undirected edges."""
        u, v, w, eid = self.undirected_edges()
        for i in range(u.size):
            yield int(u[i]), int(v[i]), int(w[i]), int(eid[i])

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        Verified invariants: monotone row pointers, in-range neighbor
        IDs, no self-loops, symmetric adjacency, mirrored slots agreeing
        on weight and edge ID, and edge IDs forming ``[0, |E|)`` with
        exactly two slots each.
        """
        n = self.num_vertices
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if self.col_idx.size and (
            self.col_idx.min() < 0 or self.col_idx.max() >= n
        ):
            raise ValueError("col_idx entries out of range")
        src = self.edge_sources()
        if np.any(src == self.col_idx):
            raise ValueError("graph contains self-loops")
        # Mirrored-slot agreement: sort directed edges by (min, max, eid)
        # and check they pair up exactly.
        lo = np.minimum(src, self.col_idx)
        hi = np.maximum(src, self.col_idx)
        order = np.lexsort((self.edge_ids, hi, lo))
        lo, hi = lo[order], hi[order]
        w, eid = self.weights[order], self.edge_ids[order]
        if lo.size % 2 != 0:
            raise ValueError("odd number of directed slots; graph not symmetric")
        a, b = slice(0, None, 2), slice(1, None, 2)
        if (
            np.any(lo[a] != lo[b])
            or np.any(hi[a] != hi[b])
            or np.any(w[a] != w[b])
            or np.any(eid[a] != eid[b])
        ):
            raise ValueError("directed slots do not mirror (asymmetric graph)")
        ids = np.sort(eid[a])
        if ids.size and not np.array_equal(ids, np.arange(ids.size)):
            raise ValueError("edge IDs must be exactly 0..|E|-1, one per edge")
        # Duplicate undirected edges would show as equal (lo, hi) pairs
        # across different edge IDs.
        pairs = lo[a].astype(np.int64) * n + hi[a]
        if np.unique(pairs).size != pairs.size:
            raise ValueError("graph contains duplicate undirected edges")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )
