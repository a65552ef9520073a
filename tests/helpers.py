"""Shared test helpers (importable without conftest-name collisions)."""

from __future__ import annotations

import numpy as np

from repro.errors import InvariantViolation
from repro.graph.build import build_csr, empty_graph


def make_graph(num_vertices: int, edges: list[tuple[int, int, int]], name="g"):
    """Tiny explicit graph from (u, v, w) triples."""
    if not edges:
        return empty_graph(num_vertices, name)
    u, v, w = (np.array(x, dtype=np.int64) for x in zip(*edges))
    return build_csr(num_vertices, u, v, w, name=name)


def find_root(parent: np.ndarray, x: int) -> tuple[int, int]:
    """Walk ``x`` to its root; returns ``(root, loads)``."""
    loads = 1
    while parent[x] != x:
        x = int(parent[x])
        loads += 1
        if loads > parent.size + 1:
            # Only corrupted parent pointers can cycle; the solver's
            # engine raises the same typed violation.
            raise InvariantViolation(
                "parent-pointer cycle detected during union find",
                invariant="parent-acyclic",
                kernel="k2_union",
            )
    return x, loads


def union_scalar(
    state,
    p: np.ndarray,
    q: np.ndarray,
    eids: np.ndarray,
    win_idx: np.ndarray,
) -> tuple[int, int, int, int]:
    """Per-winner union loop in worklist order (the reference oracle).

    Not called by the solver: the differential tests substitute it for
    ``repro.core.kernels._union_overlay`` and require bit-identical
    results.

    Returns ``(cas_attempts, union_loads, added, mirror_dups)``.
    """
    parent = state.parent
    cas_attempts = 0
    union_loads = 0
    added = 0
    mirror_dups = 0
    for i in win_idx:
        a, la = find_root(parent, int(p[i]))
        b, lb = find_root(parent, int(q[i]))
        union_loads += la + lb
        cas_attempts += 1
        if a == b:
            # Only possible for a mirrored duplicate of an edge already
            # committed this round (the "Both Edge Directions" variant).
            mirror_dups += 1
            continue
        lo, hi = (a, b) if a < b else (b, a)
        parent[hi] = lo
        eid = int(eids[i])
        if not state.in_mst[eid]:
            state.in_mst[eid] = True
            added += 1
    return cas_attempts, union_loads, added, mirror_dups
