"""The four ECL-MST kernels (Algs. 1 and 2) on the simulated GPU.

Semantics are exact: the kernels perform the real work with vectorized
NumPy and order-independent atomic equivalents, so every configuration
produces the true MSF.  Alongside the work, each kernel *counts* what
the CUDA threads would have done — CSR bytes touched, worklist entries
read/written, pointer jumps, atomics executed vs. guard-skipped,
per-warp imbalance cycles — and reports the counts to the
:class:`~repro.gpusim.costmodel.Device`, which prices the launch.

Kernel map (paper Alg. 2):

* ``init``       — Alg. 1 + worklist population (Lines 1-11)
* ``k1_reserve`` — find + cycle discard + atomicMin reservations
  (Lines 14-23)
* ``k2_union``   — winner check + union + MST marking (Lines 27-33)
* ``k3_reset``   — minEdge reset (Lines 34-37)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dsu.vectorized import (
    compress_halving_many,
    find_many_columns,
    resolve_roots,
)
from ..errors import InvariantViolation
from ..graph.csr import CSRGraph
from ..gpusim.atomics import KEY_INFINITY, atomic_min_u64, pack_keys
from ..gpusim.costmodel import Device
from ..gpusim.warp import (
    edge_centric_cycles,
    hybrid_cycles,
    thread_mode_cycles,
)
from . import costs
from .arena import ScratchArena
from .config import EclMstConfig
from .worklist import EdgeList, Worklist

__all__ = ["MstState", "kernel_init_populate", "kernel1_reserve", "kernel2_union", "kernel3_reset"]


@dataclass
class MstState:
    """Mutable algorithm state shared by the kernels."""

    graph: CSRGraph
    config: EclMstConfig
    device: Device
    parent: np.ndarray
    min_edge: np.ndarray
    in_mst: np.ndarray
    wl: Worklist = field(default_factory=Worklist)
    # Per-run scratch buffer pool: round-local arrays (cross masks,
    # packed keys) reuse the previous round's storage instead of
    # churning the allocator.
    arena: ScratchArena = field(default_factory=ScratchArena)
    # Representatives computed by the most recent k1/k2, reused by the
    # next kernel in the same round (the real code re-derives them from
    # the worklist entries themselves under implicit path compression).
    _round_p: np.ndarray | None = None
    _round_q: np.ndarray | None = None
    # Packed (weight << 32 | edge-ID) keys of the entries k2 will see,
    # computed by this round's k1 so k2 skips a full re-pack.  Keyed by
    # the identity of the front's eid column, so a refilled or restored
    # front can never match stale keys.
    _round_val: np.ndarray | None = None
    _round_val_key: np.ndarray | None = None
    # Cached per-vertex entry counts keyed by worklist-column identity:
    # k1/k2/k3 price vertex-centric loops over the same column, and the
    # topology-driven loop re-presents the identical arrays each round.
    _vcount_key: np.ndarray | None = None
    _vcount: np.ndarray | None = None
    # int64 views of the CSR edge columns plus the expanded source
    # column, materialized once per run: the init kernel runs twice
    # under filtering and these conversions are full-edge-list copies.
    _init_cols: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def create(cls, graph: CSRGraph, config: EclMstConfig, device: Device) -> "MstState":
        n = graph.num_vertices
        return cls(
            graph=graph,
            config=config,
            device=device,
            parent=np.arange(n, dtype=np.int64),
            min_edge=np.full(n, KEY_INFINITY, dtype=np.uint64),
            in_mst=np.zeros(graph.num_edges, dtype=bool),
        )

    # ------------------------------------------------------------------
    def init_columns(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, w, eid)`` int64 edge columns, cached per run."""
        if self._init_cols is None:
            g = self.graph
            self._init_cols = (
                g.edge_sources().astype(np.int64),
                g.col_idx.astype(np.int64),
                g.weights.astype(np.int64),
                g.edge_ids.astype(np.int64),
            )
        return self._init_cols

    # ------------------------------------------------------------------
    def vertex_counts(self, v: np.ndarray) -> np.ndarray:
        """Per-vertex occurrence counts of worklist column ``v``.

        Cached by array identity: k1's critical-path accounting and the
        vertex-centric loop pricing in k1/k2/k3 all count the same
        column, and the topology-driven loop re-presents the identical
        arrays every round — one bincount serves them all.  The cache
        holds a reference to the keyed array, so an ``is`` hit can
        never alias a recycled id.
        """
        if self._vcount_key is not v:
            self._vcount = np.bincount(
                v, minlength=self.graph.num_vertices
            )
            self._vcount_key = v
        assert self._vcount is not None
        return self._vcount

    # ------------------------------------------------------------------
    def find_entries(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Resolve representatives for both worklist endpoint columns.

        Returns ``(p, q, loads, writes)``.  Under implicit path
        compression the entries already sit at (or one hop from) their
        roots, so a plain read-only find is cheapest, and one
        root/depth table serves both columns; the de-optimized variant
        uses explicit GPU path halving, which costs extra loads and
        compression writes.
        """
        if self.config.implicit_path_compression:
            (p, lp), (q, lq) = find_many_columns(self.parent, xs, ys)
            return p, q, lp + lq, 0
        p, lp, wp = compress_halving_many(self.parent, xs)
        q, lq, wq = compress_halving_many(self.parent, ys)
        return p, q, lp + lq, wp + wq


# ----------------------------------------------------------------------
# Cost helpers
# ----------------------------------------------------------------------
def _outer_loop_cycles(state: MstState, per_vertex_work: np.ndarray, per_item: float) -> float:
    """Cycles of a vertex-parallel loop under the configured scheme."""
    cfg = state.config
    if cfg.hybrid_parallelization:
        return hybrid_cycles(
            per_vertex_work, per_item, threshold=cfg.hybrid_threshold
        )
    return thread_mode_cycles(per_vertex_work, per_item)


def _entry_prices(cfg: EclMstConfig) -> tuple[float, float]:
    """(bytes, cycles) per worklist-entry access.

    Topology-driven variants have no worklists: they re-read the static
    per-edge arrays, which stream sequentially and coalesce perfectly,
    so they always pay the AoS price regardless of the tuple toggle.
    """
    if not cfg.data_driven:
        eb, ec = costs.AOS_ENTRY_BYTES, costs.AOS_ENTRY_CYCLES
    else:
        eb, ec = costs.entry_bytes(cfg), costs.entry_access_cycles(cfg)
    if not cfg.edge_centric:
        # One thread walking all of a vertex's entries is a strided,
        # uncoalesced stream.
        eb *= costs.VERTEX_CENTRIC_READ_FACTOR
    return eb, ec


def _entry_loop_cycles(state: MstState, v_entries: np.ndarray, per_item: float) -> float:
    """Cycles of a worklist-parallel loop.

    Edge-centric: one entry per thread, uniform.  Vertex-centric (the
    final ablation stage): each thread owns a vertex and serially walks
    that vertex's entries, so imbalance is the per-vertex entry count.
    """
    cfg = state.config
    if cfg.edge_centric:
        return edge_centric_cycles(int(v_entries.size), per_item)
    if v_entries.size == 0:
        return 0.0
    counts = state.vertex_counts(v_entries)
    if cfg.hybrid_parallelization:
        return hybrid_cycles(counts, per_item)
    return thread_mode_cycles(counts, per_item)


# ----------------------------------------------------------------------
# Kernel: initialization + worklist population
# ----------------------------------------------------------------------
def kernel_init_populate(
    state: MstState, threshold: int | None, phase: int
) -> int:
    """Alg. 1 + Lines 1-11 of Alg. 2: fill WL1 from the CSR graph.

    ``phase`` selects the threshold condition: 1 keeps weights strictly
    under the bound, 2 inverts it and rewrites endpoints to their
    current representatives (``set(v)``/``set(n)``), which *is* the
    filtering step — same-set edges are dropped here instead of living
    through another round.  ``phase == 0`` means no filtering.

    Returns the number of entries appended.
    """
    g, cfg, dev = state.graph, state.config, state.device
    src, dst, w, eid = state.init_columns()

    if cfg.single_direction:
        mask = src < dst
    else:
        mask = np.ones(src.size, dtype=bool)
    if threshold is not None:
        if phase == 1:
            mask &= w < threshold
        else:
            mask &= w >= threshold

    sel = np.flatnonzero(mask)
    v_sel, n_sel, w_sel, e_sel = src[sel], dst[sel], w[sel], eid[sel]
    find_loads = 0
    if phase == 2:
        # Filtering: replace endpoints by representatives and drop the
        # edges that have become internal to a component (cycles).
        p, q, find_loads, _ = state.find_entries(v_sel, n_sel)
        keep = np.flatnonzero(p != q)
        if cfg.implicit_path_compression:
            v_sel, n_sel = p[keep], q[keep]
        else:
            v_sel, n_sel = v_sel[keep], n_sel[keep]
        w_sel, e_sel = w_sel[keep], e_sel[keep]

    entries = EdgeList(v_sel, n_sel, w_sel, e_sel)
    state.wl.fill_front(entries)
    appended = len(entries)

    # --- accounting: this kernel walks the CSR structure ------------
    degrees = g.degrees()
    cycles = _outer_loop_cycles(state, degrees, costs.INIT_NEIGHBOR_CYCLES)
    cycles += g.num_vertices * costs.INIT_VERTEX_CYCLES
    cycles += appended * costs.entry_access_cycles(cfg)
    cycles += find_loads * costs.FIND_JUMP_CYCLES
    slot_bytes = (
        costs.INIT_SLOT_BYTES_HYBRID
        if cfg.hybrid_parallelization
        else costs.INIT_SLOT_BYTES_THREAD
    )
    bytes_ = (
        8.0 * g.num_vertices  # row_ptr reads
        + slot_bytes * g.num_directed_edges  # adjacency scan
        + costs.entry_bytes(cfg) * appended  # worklist writes
        + costs.FIND_JUMP_BYTES * find_loads  # parent loads in phase 2
    )
    # Longest single-thread chain: hybrid splits a heavy vertex's
    # adjacency across a warp (its lanes stride the list), while
    # vertices below the threshold — and every vertex in thread mode —
    # serialize on one thread.
    dmax = int(degrees.max()) if degrees.size else 0
    if cfg.hybrid_parallelization:
        critical = max(
            -(-dmax // 32), min(dmax, max(0, cfg.hybrid_threshold - 1))
        )
    else:
        critical = dmax
    dev.launch(
        "init",
        items=g.num_directed_edges,
        cycles=cycles,
        bytes_=bytes_,
        atomics=appended,  # atomicAdd slot reservations
        critical_items=critical,
        find_jumps=find_loads,
    )
    if dev.tracer.enabled:
        dev.tracer.annotate(populate_phase=phase, populated=appended)
    return appended


# ----------------------------------------------------------------------
# Kernel 1: find + discard cycles + reserve minima (Lines 14-23)
# ----------------------------------------------------------------------
def kernel1_reserve(state: MstState) -> int:
    """Process WL1: discard same-set edges, re-append survivors to WL2
    (with implicit path compression), and reserve each set's minimum
    edge via guarded ``atomicMin``.

    Returns the number of surviving entries.
    """
    cfg, dev = state.config, state.device
    wl = state.wl.front

    p, q, loads, writes = state.find_entries(wl.v, wl.n)

    cross = np.not_equal(
        p, q, out=state.arena.take("k1.cross", p.size, np.bool_)
    )
    # One index vector, then integer takes: every boolean gather would
    # re-scan the mask, and this mask is applied up to six times.
    sel = np.flatnonzero(cross)
    survivors = int(sel.size)
    pc, qc = p[sel], q[sel]
    wc, ec = wl.w[sel], wl.eid[sel]

    if cfg.implicit_path_compression:
        # Line 18: store representatives in lieu of the endpoints.
        new_entries = EdgeList(pc, qc, wc, ec)
    else:
        new_entries = EdgeList(wl.v[sel], wl.n[sel], wc, ec)
    if cfg.data_driven:
        state.wl.append_back(new_entries)

    if cfg.data_driven:
        val = pack_keys(
            wc, ec, out=state.arena.take("k1.val", survivors, np.uint64)
        )
        # After the swap the surviving (w, eid) columns *are* the front
        # k2 sees this round, so k2 can reuse the packed keys verbatim.
        state._round_val, state._round_val_key = val, ec
    else:
        # Topology-driven: the front is the identical full edge list
        # every round, so its packed keys are loop-invariant.
        if state._round_val_key is not wl.eid:
            state._round_val = pack_keys(wl.w, wl.eid)
            state._round_val_key = wl.eid
        val = state._round_val[sel]
    inj = dev.fault_injector
    ex_p, sk_p = atomic_min_u64(
        state.min_edge, pc, val, guarded=cfg.atomic_guards, injector=inj
    )
    ex_q, sk_q = atomic_min_u64(
        state.min_edge, qc, val, guarded=cfg.atomic_guards, injector=inj
    )
    executed, skipped = ex_p + ex_q, sk_p + sk_q

    # Same-address serialization: the hottest minEdge slot.  With
    # guards only the running-minima execute (harmonic expectation);
    # without, every lane targeting the slot issues its atomic.
    if survivors:
        # One pass over the survivor subset instead of two full-width
        # bincounts: tagging the two endpoint columns into disjoint key
        # spaces makes a single unique() yield both per-side counts,
        # whose overall max is exactly max(bincount(pc), bincount(qc)).
        tagged = state.arena.take("k1.tagged", 2 * survivors)
        np.multiply(pc, 2, out=tagged[:survivors])
        np.multiply(qc, 2, out=tagged[survivors:])
        tagged[survivors:] += 1
        if survivors * 16 >= state.graph.num_vertices:
            hot = int(np.bincount(tagged).max())
        else:
            hot = int(np.unique(tagged, return_counts=True)[1].max())
        contention = (
            int(np.ceil(np.log(hot) + 0.5772)) if cfg.atomic_guards else hot
        )
    else:
        contention = 0

    state._round_p, state._round_q = p, q

    # --- accounting --------------------------------------------------
    n_items = len(wl)
    eb, ecyc = _entry_prices(cfg)
    web = costs.entry_bytes(cfg)  # appends always go to a real worklist
    cycles = _entry_loop_cycles(state, wl.v, costs.K1_ENTRY_CYCLES + ecyc)
    cycles += loads * costs.FIND_JUMP_CYCLES
    cycles += 2 * survivors * costs.GUARD_CHECK_CYCLES  # guard loads
    appends = survivors if cfg.data_driven else 0
    cycles += appends * costs.entry_access_cycles(cfg)
    bytes_ = (
        eb * n_items  # worklist reads
        + costs.FIND_JUMP_BYTES * loads  # parent chasing
        + costs.FIND_JUMP_BYTES * writes  # halving writes
        + 2 * costs.SCATTER_ACCESS_BYTES * survivors  # minEdge guard loads
        + costs.SCATTER_ACCESS_BYTES * executed  # atomicMin stores
        + web * appends  # worklist writes
    )
    critical = 0
    if not cfg.edge_centric and n_items:
        # Shares the identity-cached bincount with the loop pricing.
        critical = int(state.vertex_counts(wl.v).max())
    dev.launch(
        "k1_reserve",
        items=n_items,
        cycles=cycles,
        bytes_=bytes_,
        atomics=executed + appends,
        atomics_skipped=skipped,
        atomic_max_contention=contention,
        critical_items=critical,
        find_jumps=loads,
    )
    if dev.tracer.enabled:
        dev.tracer.annotate(
            k1_survivors=survivors,
            k1_atomics_executed=executed,
            k1_atomics_skipped=skipped,
        )
    return survivors


# ----------------------------------------------------------------------
# Kernel 2: winner check + union + MST marking (Lines 27-33)
# ----------------------------------------------------------------------
def _find_root(parent: np.ndarray, x: int) -> tuple[int, int]:
    loads = 1
    while parent[x] != x:
        x = int(parent[x])
        loads += 1
        if loads > parent.size + 1:
            # Only corrupted parent pointers can cycle; surface a typed
            # violation the recovery ladder understands.
            raise InvariantViolation(
                "parent-pointer cycle detected during union find",
                invariant="parent-acyclic",
                kernel="k2_union",
            )
    return x, loads


def _union_scalar(
    state: MstState,
    p: np.ndarray,
    q: np.ndarray,
    eids: np.ndarray,
    win_idx: np.ndarray,
) -> tuple[int, int, int, int]:
    """Per-winner union loop in worklist order (the reference oracle).

    Not called by the solver: the differential tests substitute it for
    :func:`_union_overlay` and require bit-identical results.

    Returns ``(cas_attempts, union_loads, added, mirror_dups)``.
    """
    parent = state.parent
    cas_attempts = 0
    union_loads = 0
    added = 0
    mirror_dups = 0
    for i in win_idx:
        a, la = _find_root(parent, int(p[i]))
        b, lb = _find_root(parent, int(q[i]))
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


# Calls with fewer winners than this walk every winner serially: the
# peel costs ~30 NumPy calls per round whatever its size.  Measured on
# a 2-vCPU x86-64 VM over 469 captured k2 calls of >= 32 winners (26
# input/scale pairs, scale 0.06 to 8, rmat22.sym x8 included), best of
# 9 per call, peel/plain time: 2.45 below 256 winners, 1.18 at
# 512-768, 1.06 at 768-1024, ~1.0 at 1024-1536 (peel faster in under
# half), then 0.84 at 1536-2048 (12 of 13 faster) falling to 0.65
# above 8192.
_PEEL_MIN_WINNERS = 1536


def _overlay_walk(
    ra: np.ndarray, rb: np.ndarray
) -> tuple[dict[int, int], list[int], int]:
    """The serial link walk over winners with start-of-call roots
    ``(ra[k], rb[k])``, in order.

    Returns ``(up, dups, hops)``: this walk's links ``up[hi] = lo`` in
    the order they were made, the positions whose two roots met, and
    the overlay hops taken.
    """
    up: dict[int, int] = {}
    dups = []
    hops = 0
    for k, (a, b) in enumerate(zip(ra.tolist(), rb.tolist())):
        while a in up:
            a = up[a]
            hops += 1
        while b in up:
            b = up[b]
            hops += 1
        if a < b:
            up[b] = a
        elif b < a:
            up[a] = b
        else:
            dups.append(k)
    return up, dups, hops


def _peel_inert_leaves(
    ra: np.ndarray, rb: np.ndarray, arena: ScratchArena, n: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Peel the winner forest's inert leaves, round by round.

    A winner ``(x, y)`` is an inert leaf when no other remaining winner
    touches ``x`` and ``x > y``.  Returns one ``(k, x, y)`` triple of
    arrays per round (``k`` the winner positions); the winners never
    listed form the core.  Mirrored duplicates, self-pairs and cycles
    never bring a vertex down to degree 1, so they stay in the core.
    """
    ends = np.concatenate((ra, rb))
    # |V|-sized tables, but only the winners' roots are ever read, so
    # only those entries are cleared.
    deg = arena.take("k2.deg", n)
    deg[ends] = 0
    np.add.at(deg, ends, 1)
    # Sum of the remaining winner positions touching each vertex: at
    # degree 1 it names the vertex's one remaining winner.
    inc = arena.take("k2.inc", n)
    inc[ends] = 0
    np.add.at(inc, ends, np.tile(np.arange(ra.size, dtype=np.int64), 2))
    seen = arena.take("k2.seen", n)
    rounds = []
    # Only a vertex the previous round brought down to degree 1 can be
    # a new leaf; the far end of a leaf's winner never changes.
    leaves = ends[deg[ends] == 1]
    while leaves.size:
        k = inc[leaves]
        other = ra[k] ^ rb[k] ^ leaves  # the winner's far end
        inert = leaves > other
        if not inert.any():
            break
        k, x, y = k[inert], leaves[inert], other[inert]
        rounds.append((k, x, y))
        deg[x] = 0
        np.subtract.at(deg, y, 1)
        np.subtract.at(inc, y, k)
        leaves = y[deg[y] == 1]
        # Each new leaf once: the last lane to write it keeps it.
        lane = np.arange(leaves.size)
        seen[leaves] = lane
        leaves = leaves[seen[leaves] == lane]
    return rounds


def _union_overlay(
    state: MstState,
    p: np.ndarray,
    q: np.ndarray,
    eids: np.ndarray,
    win_idx: np.ndarray,
) -> tuple[int, int, int, int]:
    """Exact union engine, bit-identical to :func:`_union_scalar`.

    Every link joins two *current* roots, and a vertex that is not a
    root when the call starts never changes parent during it.  So the
    scalar walk from ``p[i]`` is its start-of-call path, resolved for
    all winners at once, followed by a walk over the links this call
    has already made (``up[hi] = lo``); ``parent`` receives them in one
    scatter at the end.

    Most winners skip the serial walk.  Peeling the inert leaves off
    the winner forest (:func:`_peel_inert_leaves`) leaves a core that
    :func:`_overlay_walk` runs in worklist order.  When a peeled winner
    ``i = (x, y)`` comes up, ``x``'s component is ``x`` plus vertices
    peeled earlier, all above ``x``, so the link is ``up[x] = root of
    y`` and no component minimum moves: no other winner's link or hop
    count depends on it.  The rounds are then answered in reverse, one
    lane walk each, from ``y`` over the links made before ``i``.

    Loads follow the scalar convention (path length + 1 per endpoint):
    resolve hops + overlay hops + ``2 m``.  A corrupted ``parent``
    raises from :func:`resolve_roots` before anything is written.
    """
    m = int(win_idx.size)
    n = state.parent.size
    ra, hops_a = resolve_roots(state.parent, p[win_idx], kernel="k2_union")
    rb, hops_b = resolve_roots(state.parent, q[win_idx], kernel="k2_union")
    rounds = (
        _peel_inert_leaves(ra, rb, state.arena, n)
        if m >= _PEEL_MIN_WINNERS
        else []
    )
    if rounds:
        core = np.ones(m, dtype=bool)
        for k, _, _ in rounds:
            core[k] = False
        core = np.flatnonzero(core)
        up, core_dups, hops = _overlay_walk(ra[core], rb[core])
        dups = core[core_dups]
    else:
        up, dups, hops = _overlay_walk(ra, rb)
    if up:
        keys = np.fromiter(up, np.int64, len(up))
        vals = np.fromiter(up.values(), np.int64, len(up))
        state.parent[keys] = vals
    if rounds:
        # link_at[v] is the position of the winner that linked v, or m.
        link_to = state.arena.take("k2.link_to", n)
        link_at = state.arena.take("k2.link_at", n)
        link_at[ra] = m
        link_at[rb] = m
        if up:
            link_to[keys] = vals
            link_at[keys] = np.delete(core, core_dups)
        for k, x, y in reversed(rounds):
            to = y.copy()
            live = np.flatnonzero(link_at[to] < k)
            while live.size:
                hops += int(live.size)
                to[live] = link_to[to[live]]
                live = live[link_at[to[live]] < k[live]]
            link_to[x] = to
            link_at[x] = k
        xs = np.concatenate([x for _, x, _ in rounds])
        state.parent[xs] = link_to[xs]
    added = 0
    linked = np.delete(win_idx, dups) if len(dups) else win_idx
    if linked.size:
        ce = eids[linked]
        # Sorted, so an edge ID linked twice counts once, as in the
        # scalar loop.
        fresh = np.sort(ce[~state.in_mst[ce]])
        added = int(fresh.size) - int(np.count_nonzero(fresh[1:] == fresh[:-1]))
        state.in_mst[fresh] = True
    loads = int(hops_a.sum()) + int(hops_b.sum()) + hops + 2 * m
    return m, loads, added, len(dups)


def kernel2_union(state: MstState) -> int:
    """Check each WL1 entry against the recorded minima; include
    winners in the MST and join their sets (ECL CAS-style link-by-ID).

    Returns the number of edges added to the MST.
    """
    cfg, dev = state.config, state.device
    wl = state.wl.front
    n_items = len(wl)
    if n_items == 0:
        return 0

    if not cfg.data_driven and state._round_p is not None:
        # Topology-driven: the front still holds original endpoints but
        # k1 just resolved their representatives over the same entries.
        p, q = state._round_p, state._round_q
        loads = 0
        writes = 0
    elif cfg.implicit_path_compression:
        # Data-driven: the swapped-in worklist entries *are* the reps.
        p, q = wl.v, wl.n
        loads = 0
        writes = 0
    else:
        p, q, loads, writes = state.find_entries(wl.v, wl.n)
    state._round_p, state._round_q = p, q

    if state._round_val is not None and state._round_val_key is wl.eid:
        # k1 already packed the keys for exactly these entries.
        val = state._round_val
    else:
        val = pack_keys(wl.w, wl.eid)
    win = (val == state.min_edge[p]) | (val == state.min_edge[q])
    win_idx = np.flatnonzero(win)

    # Winner edges are guaranteed acyclic (each is the unique minimum
    # of at least one of its sets), so the unions commute; we apply
    # them in worklist order, simulating the CAS retry loop.
    cas_attempts, union_loads, added, mirror_dups = _union_overlay(
        state, p, q, wl.eid, win_idx
    )

    # --- accounting --------------------------------------------------
    eb, ecyc = _entry_prices(cfg)
    cycles = _entry_loop_cycles(state, wl.v, costs.K2_ENTRY_CYCLES + ecyc)
    cycles += (loads + union_loads) * costs.FIND_JUMP_CYCLES
    bytes_ = (
        eb * n_items
        + 2 * costs.SCATTER_ACCESS_BYTES * n_items  # two minEdge loads
        + costs.FIND_JUMP_BYTES * (loads + union_loads)
        + costs.FIND_JUMP_BYTES * writes
        + costs.SCATTER_ACCESS_BYTES * cas_attempts  # parent CAS
        + 1.0 * added  # MST flag store
    )
    dev.launch(
        "k2_union",
        items=n_items,
        cycles=cycles,
        bytes_=bytes_,
        atomics=cas_attempts,
        find_jumps=loads + union_loads,
    )
    if dev.tracer.enabled:
        dev.tracer.annotate(k2_added=added, k2_mirror_dups=mirror_dups)
    return added


# ----------------------------------------------------------------------
# Kernel 3: reset minEdge (Lines 34-37)
# ----------------------------------------------------------------------
def kernel3_reset(state: MstState) -> None:
    """Clear the reservations of every set touched this round."""
    cfg, dev = state.config, state.device
    wl = state.wl.front
    n_items = len(wl)
    if n_items == 0:
        return
    p = state._round_p if state._round_p is not None else wl.v
    q = state._round_q if state._round_q is not None else wl.n
    state.min_edge[p] = KEY_INFINITY
    state.min_edge[q] = KEY_INFINITY

    eb, ecyc = _entry_prices(cfg)
    cycles = _entry_loop_cycles(state, wl.v, costs.K3_ENTRY_CYCLES + ecyc)
    bytes_ = (
        eb * n_items + 2 * costs.SCATTER_ACCESS_BYTES * n_items
    )  # entry read + two scattered stores
    dev.launch("k3_reset", items=n_items, cycles=cycles, bytes_=bytes_)
