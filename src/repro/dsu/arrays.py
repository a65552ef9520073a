"""Array-based disjoint-set (union-find) with pluggable path compression.

ECL-MST, Lonestar and PBBS all center on this structure (Section 2).
The paper studies several *find* compression schemes (Section 3.2,
bullet 3) — including "intermediate pointer jumping" from the ECL-CC
connected-components work — before settling on **no explicit
compression at all**, relying instead on the implicit compression that
happens when worklist entries are rewritten to representatives.

The union is the ECL-style lock-free link: roots are compared and the
*higher-ID root is attached beneath the lower-ID root* via what would
be an ``atomicCAS`` retry loop on a GPU.  Link-by-ID (rather than by
rank) is what makes the CAS loop simple and ABA-free.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .vectorized import _root_depth_table

__all__ = ["Compression", "DisjointSet"]


class Compression(str, Enum):
    """Path-compression schemes selectable for the find operation."""

    NONE = "none"
    HALVING = "halving"
    SPLITTING = "splitting"
    FULL = "full"
    # "Intermediate pointer jumping" (Jaiganesh & Burtscher, HPDC'18):
    # every traversal step rewrites the visited node to its grandparent,
    # like halving, but the rewrite is also applied when the traversal
    # starts mid-path — the GPU-friendly variant.
    INTERMEDIATE = "intermediate"


class DisjointSet:
    """Union-find over vertices ``0..n-1``.

    Tracks ``find_loads`` (parent dereferences, 1 + path length per
    find) and ``unions`` so the cost models can charge the *actual*
    work of each scheme.
    """

    def __init__(self, n: int, compression: Compression | str = Compression.NONE):
        self.parent = np.arange(n, dtype=np.int64)
        self.compression = Compression(compression)
        # Decided once: an enum compare per find would cost the serial
        # Kruskal scans ~15% of their time, and one per hop the
        # halving and splitting finds ~20% of theirs.
        self._full = self.compression is Compression.FULL
        self._plain = self.compression is Compression.NONE
        self._halving = self.compression is Compression.HALVING
        self.find_loads = 0
        self.unions = 0

    @property
    def n(self) -> int:
        return int(self.parent.size)

    # ------------------------------------------------------------------
    # find
    # ------------------------------------------------------------------
    def find(self, x: int) -> int:
        """Representative of ``x``'s set, applying the configured scheme."""
        parent = self.parent
        if self._full:
            root = x
            loads = 1
            while parent[root] != root:
                root = int(parent[root])
                loads += 1
            # Second pass: point the whole path at the root.
            while parent[x] != root:
                parent[x], x = root, int(parent[x])
            self.find_loads += loads
            return root

        cur = x
        loads = 1
        if self._plain:
            while parent[cur] != cur:
                cur = int(parent[cur])
                loads += 1
        else:
            # Point cur at its grandparent (a no-op next to a root),
            # then step there (halving) or to the old parent
            # (splitting, intermediate).
            halving = self._halving
            while parent[cur] != cur:
                nxt = int(parent[cur])
                grand = int(parent[nxt])
                loads += 2
                parent[cur] = grand
                cur = grand if halving else nxt
        self.find_loads += loads
        return int(cur)

    # ------------------------------------------------------------------
    # union
    # ------------------------------------------------------------------
    def union(self, a: int, b: int) -> bool:
        """Join the sets of ``a`` and ``b``; return False if already one.

        The ECL link: the higher-ID root goes beneath the lower-ID one
        (``atomicCAS(&parent[hi], hi, lo)``, which cannot fail when
        run sequentially).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        self.unions += 1
        return True

    def same_set(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def num_sets(self) -> int:
        """Number of disjoint sets (roots)."""
        roots = self.parent == np.arange(self.parent.size)
        return int(np.count_nonzero(roots))

    def representatives(self) -> np.ndarray:
        """Root of every vertex (fully resolved, no mutation)."""
        if self.n == 0:
            return self.parent.copy()
        return _root_depth_table(self.parent)[0].copy()
