"""Vectorized multi-find used by the simulated GPU kernels.

A GPU kernel issues one *find* per worklist entry, all concurrent.
Because finds only read the parent array (ECL-MST does no explicit
compression) the concurrent outcome equals the sequential one, so a
vectorized evaluation is exact — and it lets us *count* the
parent-pointer dereferences that the cost model charges, which is how
the implicit-path-compression ablation ("No Impl. Path Compr." adds
58% runtime) becomes measurable: without it, worklist entries sit far
from their roots and the jump counts grow.

Two evaluations give identical roots and load counts:

* the **lane walk** (:func:`resolve_roots`) advances every unfinished
  lane one hop per pass, so its cost is proportional to the total path
  length of the batch;
* the **root/depth table** resolves every *vertex* at once by pointer
  doubling over the whole forest (``depth += depth[anc]; anc =
  anc[anc]``), costing O(|V| log max-depth) regardless of the batch,
  after which each lane is two gathers.

:func:`find_many` picks the table for batches of at least
``_TABLE_LANES_PER_VERTEX`` lanes per vertex — init's filtering pass
and k1 on dense graphs resolve many times |V| lanes against a shallow
forest — and the lane walk otherwise; :func:`find_many_columns` lets
one table serve both endpoint columns of such a batch.  Corrupted
state (an out-of-range pointer or a cycle anywhere in ``parent``)
always takes the lane walk, so only lanes that actually reach it
raise.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvariantViolation

__all__ = [
    "find_many",
    "find_many_columns",
    "compress_halving_many",
    "resolve_roots",
]

# Batch size, in lanes per vertex, from which find_many answers from the
# root/depth table.  The lane walk is cheapest when most lanes already
# sit at their roots (its first pass then ends it); the table costs a
# few passes over |V| whatever the batch, and wins by 5x and more on
# batches of several lanes per vertex whose lanes are several hops deep.
# Measured on a 2-vCPU x86-64 VM over the 96 batches of at least |V|/4
# lanes issued by solves of rmat22.sym (scale 8), USA-road-d.NY,
# kron_g500-logn21, soc-LiveJournal1, coPapersDBLP, 2d-2e20.sym (scale
# 4), europe_osm (2) and internet (1): total find time was flat for
# crossovers of 1.5-4 lanes per vertex, 12% higher at 1 and 2.7x higher
# at 8.  2 sits in the middle of the flat range.
_TABLE_LANES_PER_VERTEX = 2


def _cycle(kernel: str) -> InvariantViolation:
    # A healthy union-find is acyclic by construction; only corrupted
    # parent pointers (fault injection) can spin a find loop past the
    # vertex count.  Typed so the recovery ladder can catch it.
    return InvariantViolation(
        "parent-pointer cycle detected during find (corrupted state)",
        invariant="parent-acyclic",
        kernel=kernel,
    )


def resolve_roots(
    parent: np.ndarray, xs: np.ndarray, *, kernel: str = "resolve_roots"
) -> tuple[np.ndarray, np.ndarray]:
    """Batched root resolution with exact per-element hop counts.

    The lane walk, used by the vectorized union engine and by
    :func:`find_many` for small batches and corrupted forests: every
    lane performs ``while parent[v] != v: v = parent[v]`` one hop per
    pass, and ``hops[i]`` records how many pointer dereferences lane
    ``i``'s walk took *beyond* the final self-check — i.e. the path
    length.  A lane's GPU load count is therefore ``hops[i] + 1``.

    The working set shrinks as lanes reach their roots, so the cost is
    proportional to the batch's total path length, not lanes × depth.
    Never mutates ``parent``; raises the same typed ``parent-acyclic``
    :class:`InvariantViolation` as the scalar walk when a lane reaches
    a cycle in a corrupted parent array (``kernel`` names the
    reporting kernel).

    When every lane already sits at its root the returned array may be
    ``xs`` itself (no copy) — mutate the result only if you own ``xs``.
    """
    xs = np.asarray(xs, dtype=np.int64)
    hops = np.zeros(xs.size, dtype=np.int64)
    if xs.size == 0:
        return xs.copy(), hops
    # First pass inline: most lanes already sit at their root, so the
    # copy and the walker bookkeeping (position index) are built lazily
    # from the movers instead of materializing full-width arrays.
    nxt = parent[xs]
    moving = nxt != xs
    if not moving.any():
        return xs, hops
    roots = xs.copy()
    idx = np.flatnonzero(moving)
    cur = nxt[idx]
    roots[idx] = cur
    hops[idx] = 1
    passes = 1
    while True:
        nxt = parent[cur]
        moving = nxt != cur
        if not moving.any():
            return roots, hops
        passes += 1
        if passes > parent.size + 1:
            raise _cycle(kernel)
        idx = idx[moving]
        cur = nxt[moving]
        roots[idx] = cur
        hops[idx] += 1


def _root_depth_table(
    parent: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-vertex ``(root, depth)`` of the whole forest, or ``None``.

    Pointer doubling: ``anc[v]`` starts at ``parent[v]`` and
    ``depth[v]`` counts the hops from ``v`` to ``anc[v]``; each pass
    doubles the stride until every ``anc`` is a fixed point, i.e.
    ⌈log₂ max-depth⌉ passes over |V|.  ``parent`` is never mutated.

    Returns ``None`` when ``parent`` holds an out-of-range entry, or a
    cycle (doubling has not settled on roots after ⌈log₂|V|⌉+1
    passes): the caller then walks lanes, which raises only for lanes
    that reach the corruption.
    """
    n = parent.size
    if n == 0 or int(parent.min()) < 0 or int(parent.max()) >= n:
        return None
    anc = parent.astype(np.int64, copy=False)
    depth = (anc != np.arange(n)).astype(np.int64)
    for _ in range((n - 1).bit_length() + 1):
        nxt = anc[anc]
        if np.array_equal(nxt, anc):
            break
        depth += depth[anc]
        anc = nxt
    # In an acyclic forest every anc is now a root.  A cycle either
    # never settles or (length a power of two) doubles onto itself;
    # both leave some anc on a vertex that is not a root.
    if not np.array_equal(parent[anc], anc):
        return None
    return anc, depth


def find_many(parent: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, int]:
    """Roots of all ``xs``, plus the total pointer-jump count.

    Each lane performs ``while parent[v] != v: v = parent[v]``; the
    returned count is the total number of ``parent[...]`` loads across
    lanes (path length + 1 final check each), exactly what the GPU
    threads would issue.

    Batches of at least ``_TABLE_LANES_PER_VERTEX`` × |V| lanes are
    answered from the whole-forest root/depth table (cost
    O(|V| log depth) + two gathers per lane); smaller ones, and any
    batch over a corrupted ``parent``, take the lane walk of
    :func:`resolve_roots` (cost proportional to the total path
    length).  Both give the same roots and count, and neither mutates
    ``parent``.  The returned roots are a fresh ``int64`` array unless
    every lane already sits at its root, when they may be ``xs``
    itself.
    """
    return find_many_columns(parent, xs)[0]


def find_many_columns(
    parent: np.ndarray, *cols: np.ndarray
) -> list[tuple[np.ndarray, int]]:
    """:func:`find_many` of each column, sharing one root/depth table.

    The crossover counts the lanes of all columns together, so a
    kernel resolving both endpoint columns of a worklist builds the
    table at most once.  Roots and counts equal per-column
    :func:`find_many` calls; on a corrupted ``parent`` the columns are
    walked in order, so the first column that reaches the corruption
    raises.
    """
    arrs = [np.asarray(c) for c in cols]
    lanes = sum(c.size for c in arrs)
    # Negative lanes wrap differently in the two evaluations.
    if (
        lanes
        and lanes >= _TABLE_LANES_PER_VERTEX * parent.size
        and all(c.size == 0 or int(c.min()) >= 0 for c in arrs)
    ):
        table = _root_depth_table(parent)
        if table is not None:
            root, depth = table
            return [(root[c], int(c.size + int(depth[c].sum()))) for c in arrs]
    out = []
    for c in arrs:
        roots, hops = resolve_roots(parent, c, kernel="find_many")
        out.append((roots, int(roots.size + int(hops.sum()))))
    return out


def compress_halving_many(
    parent: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Roots of ``xs`` with GPU path-halving writes (explicit compression).

    Used by the "No Implicit Path Compression" de-optimized variant,
    which employs "the path-halving code for GPUs": every traversal
    step rewrites the visited node to its grandparent.  Returns
    ``(roots, loads, writes)``.

    Concurrent halving only ever moves pointers *up* the tree, so the
    sequential-equivalent vectorized form below is a legal concurrent
    outcome.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size == 0:
        return xs.copy(), 0, 0
    cur = xs.copy()
    loads = cur.size
    writes = 0
    hops = 0
    while True:
        nxt = parent[cur]
        moving = nxt != cur
        n_moving = int(np.count_nonzero(moving))
        if n_moving == 0:
            return cur, loads, writes
        hops += 1
        if hops > parent.size + 1:
            raise _cycle("compress_halving_many")
        grand = parent[nxt[moving]]
        loads += 2 * n_moving  # parent[v] and parent[parent[v]]
        changed = grand != nxt[moving]
        writes += int(np.count_nonzero(changed))
        # parent[v] = grandparent (halving write), then jump there.
        mv = cur[moving]
        parent[mv] = grand
        cur[moving] = grand
