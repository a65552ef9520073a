"""Unit tests for the individual ECL-MST kernels (below the driver)."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.arena import ScratchArena
from repro.core.config import EclMstConfig
from repro.core.eclmst import ecl_mst
from repro.core.kernels import (
    MstState,
    _union_overlay,
    _union_scalar,
    kernel1_reserve,
    kernel2_union,
    kernel3_reset,
    kernel_init_populate,
)
from repro.errors import InvariantViolation
from repro.generators import suite
from repro.gpusim.atomics import KEY_INFINITY, unpack_edge_id
from repro.gpusim.costmodel import Device
from repro.gpusim.spec import RTX_3080_TI

from helpers import make_graph


def _state(graph, **cfg_kw):
    cfg = EclMstConfig(**cfg_kw) if cfg_kw else EclMstConfig()
    return MstState.create(graph, cfg, Device(RTX_3080_TI))


class TestInitPopulate:
    def test_single_direction_counts(self, paper_figure1):
        state = _state(paper_figure1)
        appended = kernel_init_populate(state, None, phase=0)
        assert appended == paper_figure1.num_edges  # one slot per edge

    def test_both_directions_counts(self, paper_figure1):
        state = _state(paper_figure1, single_direction=False)
        appended = kernel_init_populate(state, None, phase=0)
        assert appended == paper_figure1.num_directed_edges

    def test_phase1_threshold_filters(self, paper_figure1):
        state = _state(paper_figure1)
        appended = kernel_init_populate(state, threshold=3, phase=1)
        # Weights 1, 2 are strictly under 3 -> two entries.
        assert appended == 2
        assert sorted(state.wl.front.w.tolist()) == [1, 2]

    def test_phase2_inverts_threshold(self, paper_figure1):
        state = _state(paper_figure1)
        appended = kernel_init_populate(state, threshold=3, phase=2)
        assert appended == 3  # weights 3, 4, 5

    def test_phase2_drops_internal_edges(self, triangle):
        state = _state(triangle)
        # Pretend phase 1 already merged everything into one set.
        state.parent[:] = 0
        appended = kernel_init_populate(state, threshold=10**9, phase=2)
        assert appended == 0  # all edges are cycles now

    def test_init_charges_one_launch(self, triangle):
        state = _state(triangle)
        kernel_init_populate(state, None, phase=0)
        assert state.device.counters.launches_of("init") == 1


class TestKernel1:
    def test_reserves_minimum_per_set(self, paper_figure1):
        state = _state(paper_figure1)
        kernel_init_populate(state, None, phase=0)
        survivors = kernel1_reserve(state)
        assert survivors == paper_figure1.num_edges  # nothing merged yet
        # Vertex A(0) touches edges (0,1,w4) and (0,2,w1): min key is
        # the weight-1 edge.
        assert int(unpack_edge_id([state.min_edge[0]])[0]) >= 0
        from repro.gpusim.atomics import unpack_weight

        assert int(unpack_weight([state.min_edge[0]])[0]) == 1

    def test_discards_internal_edges(self, triangle):
        state = _state(triangle)
        kernel_init_populate(state, None, phase=0)
        state.parent[:] = 0  # everything one set already
        survivors = kernel1_reserve(state)
        assert survivors == 0

    def test_appends_survivors_to_back_buffer(self, triangle):
        state = _state(triangle)
        kernel_init_populate(state, None, phase=0)
        kernel1_reserve(state)
        state.wl.swap()
        assert len(state.wl.front) == 3

    def test_topology_mode_appends_nothing(self, triangle):
        state = _state(triangle, data_driven=False)
        kernel_init_populate(state, None, phase=0)
        kernel1_reserve(state)
        saved = state.wl.front
        state.wl.swap()
        assert len(state.wl.front) == 0
        state.wl.front = saved  # driver restores it in topology mode


class TestKernel2And3:
    def _one_round(self, graph, **cfg_kw):
        state = _state(graph, **cfg_kw)
        kernel_init_populate(state, None, phase=0)
        kernel1_reserve(state)
        state.wl.swap()
        return state

    def test_winners_marked_and_unioned(self, paper_figure1):
        state = self._one_round(paper_figure1)
        added = kernel2_union(state)
        # Round 1 of Figure 2's narration: at least 2 edges commit.
        assert added >= 2
        assert state.in_mst.sum() == added
        # Sets merged: fewer roots than vertices.
        roots = (state.parent == np.arange(5)).sum()
        assert roots == 5 - added

    def test_reset_clears_touched_slots(self, paper_figure1):
        state = self._one_round(paper_figure1)
        kernel2_union(state)
        kernel3_reset(state)
        assert np.all(state.min_edge == KEY_INFINITY)

    def test_empty_worklist_is_noop(self, triangle):
        state = _state(triangle)
        assert kernel2_union(state) == 0
        kernel3_reset(state)  # must not raise
        assert state.device.counters.launches_of("k3_reset") == 0

    def test_mirrored_duplicates_commit_once(self, triangle):
        state = self._one_round(triangle, single_direction=False)
        added = kernel2_union(state)
        # Both directions are in the worklist but each edge counts once.
        assert added == int(state.in_mst.sum())


class TestFindEntries:
    def test_implicit_mode_readonly(self, path_graph):
        state = _state(path_graph)
        state.parent[5] = 4
        before = state.parent.copy()
        roots, _, loads, writes = state.find_entries(np.array([5]), np.array([3]))
        assert roots[0] == 4 and writes == 0
        assert np.array_equal(state.parent, before)

    def test_explicit_mode_halves_paths(self, path_graph):
        state = _state(path_graph, implicit_path_compression=False)
        for i in range(1, 6):
            state.parent[i] = i - 1
        roots, _, loads, writes = state.find_entries(np.array([5]), np.array([0]))
        assert roots[0] == 0
        assert writes > 0  # halving rewrote part of the chain


def _forest(rng, n: int, chains: int) -> np.ndarray:
    """A parent forest over ``n`` vertices: ``chains`` paths through a
    random vertex order (one path is a depth-(n - 1) chain), or, for
    ``chains == 0``, random trees with roots mixed in."""
    order = rng.permutation(n)
    parent = np.arange(n, dtype=np.int64)
    if chains:
        link = np.ones(n, dtype=bool)
        link[0] = False
        link[rng.choice(n, min(chains, n) - 1, replace=False)] = False
        parent[order[link]] = order[np.flatnonzero(link) - 1]
    else:
        pick = (rng.random(n) * np.arange(n)).astype(np.int64)
        attach = rng.random(n) < 0.7
        attach[0] = False
        parent[order[attach]] = order[pick[attach]]
    return parent


def _winners(rng, n: int, m: int, hub_share: float):
    """``(p, q, eids, win_idx)``: ``m`` winners among ``m + extra`` lanes.

    A ``hub_share`` of the winners pair the largest vertex ID with a
    smaller leaf, leaves in falling ID order, so each link moves the
    hub component's minimum and later hub walks chase ever longer
    overlay chains.  Some winners are mirrored duplicates (same edge
    ID, endpoints swapped) and some are ``p == q`` lanes.
    """
    p = rng.integers(0, n, m)
    q = rng.integers(0, n, m)
    hub = rng.random(m) < hub_share
    p[hub] = n - 1
    q[hub] = np.sort(rng.integers(0, n, int(hub.sum())))[::-1]
    eids = rng.integers(0, 2 * m + 1, m)
    mirror = np.flatnonzero(rng.random(m) < 0.15)
    if mirror.size:
        src = rng.integers(0, m, mirror.size)
        p[mirror], q[mirror], eids[mirror] = q[src], p[src], eids[src]
    same = rng.random(m) < 0.05
    q[same] = p[same]
    extra = int(rng.integers(0, 8))
    lanes = m + extra
    win_idx = np.sort(rng.choice(lanes, m, replace=False)).astype(np.int64)
    pl = rng.integers(0, n, lanes)
    ql = rng.integers(0, n, lanes)
    el = rng.integers(0, 2 * m + 1, lanes)
    pl[win_idx], ql[win_idx], el[win_idx] = p, q, eids
    return pl, ql, el, win_idx


def _hooking_winners(rng, n_extra: int, m: int, chain_share: float, hub_share: float):
    """``(parent, p, q, eids, win_idx)`` shaped like one Borůvka hook.

    Each start-of-call root hooks to one neighbour root, cycles broken,
    over shuffled vertex IDs, so leaves are inert (above their
    neighbour) about half the time.  A ``chain_share`` of the hooks
    build chains whose IDs rise away from their anchor, so they peel
    one vertex per round; a ``hub_share`` hook to the lowest- or
    highest-ID root.  On top come mirrored duplicates (same edge ID,
    endpoints swapped), a repeated pair, and a few extra pairs that
    close cycles; the ``m`` winners are shuffled into worklist order.
    Lanes name random members of each root's component in a start
    forest of ``n_extra`` non-root vertices.
    """
    n_dup = m // 30
    n_cyc = min(3, m - n_dup - 1)
    n_hook = m - n_dup - n_cyc
    n_trees = 1 + int(rng.integers(0, 4))
    n_roots = n_hook + n_trees
    n = n_roots + n_extra
    ids = rng.permutation(n)[:n_roots]
    lo, hi = int(np.argmin(ids)), int(np.argmax(ids))
    rest = np.setdiff1d(np.arange(n_roots), [lo, hi])
    sigma = np.concatenate(([lo, hi], rng.permutation(rest)))
    hooks = []
    j = n_trees
    while j < n_roots:
        anchor = int(sigma[rng.integers(0, j)])
        if rng.random() < hub_share:
            anchor = int(sigma[rng.integers(0, 2)])
        if rng.random() < chain_share:
            seg = sigma[j : j + int(rng.integers(2, 9))]
            seg = seg[np.argsort(ids[seg])]
            hooks += zip(seg.tolist(), [anchor] + seg[:-1].tolist())
            j += seg.size
        else:
            hooks.append((int(sigma[j]), anchor))
            j += 1
    a, b = (ids[np.array(c)] for c in zip(*hooks))
    eids = rng.permutation(3 * m)[: a.size]
    dup = rng.integers(0, a.size, n_dup)
    a, b, eids = (
        np.concatenate((a, b[dup])),
        np.concatenate((b, a[dup])),
        np.concatenate((eids, eids[dup])),
    )
    a[-1], b[-1] = a[-2], b[-2]  # the same pair twice, one edge ID each
    cyc = rng.integers(0, n_roots, (2, n_cyc))
    a = np.concatenate((a, ids[cyc[0]]))
    b = np.concatenate((b, ids[cyc[1]]))
    eids = np.concatenate((eids, rng.integers(0, 3 * m, n_cyc)))
    flip = rng.random(m) < 0.5
    a[flip], b[flip] = b[flip], a[flip]
    order = rng.permutation(m)
    a, b, eids = a[order], b[order], eids[order]
    # Start forest: every non-root vertex hangs below an earlier vertex.
    parent = np.arange(n, dtype=np.int64)
    others = np.setdiff1d(np.arange(n), ids)
    seq = np.concatenate((ids, rng.permutation(others)))
    up = (rng.random(n_extra) * np.arange(n_roots, n)).astype(np.int64)
    parent[seq[n_roots:]] = seq[up]
    root = parent.copy()
    while not np.array_equal(root, root[root]):
        root = root[root]
    members = np.argsort(root, kind="stable")
    first = np.searchsorted(root[members], np.arange(n))
    size = np.bincount(root, minlength=n)

    def lane(r):
        return members[first[r] + (rng.random(r.size) * size[r]).astype(np.int64)]

    p, q = lane(a), lane(b)
    extra = int(rng.integers(0, 8))
    lanes = m + extra
    win_idx = np.sort(rng.choice(lanes, m, replace=False)).astype(np.int64)
    pl = rng.integers(0, n, lanes)
    ql = rng.integers(0, n, lanes)
    el = rng.integers(0, 3 * m, lanes)
    pl[win_idx], ql[win_idx], el[win_idx] = p, q, eids
    return parent, pl, ql, el, win_idx


def _union_state(parent: np.ndarray, in_mst: np.ndarray) -> SimpleNamespace:
    return SimpleNamespace(
        parent=parent.copy(), in_mst=in_mst.copy(), arena=ScratchArena()
    )


class TestUnionOverlay:
    """The link-overlay union against the scalar reference loop."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 150),
        m=st.sampled_from([0, 1, 63, 64, 65, 257, 600]),
        chains=st.sampled_from([0, 1, 2, 5, 20, 150]),
        hub_share=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_matches_scalar_loop(self, seed, n, m, chains, hub_share):
        rng = np.random.default_rng(seed)
        parent = _forest(rng, n, chains)
        p, q, eids, win_idx = _winners(rng, n, m, hub_share)
        in_mst = rng.random(2 * m + 1) < 0.2
        ref = _union_state(parent, in_mst)
        got = _union_state(parent, in_mst)
        expected = _union_scalar(ref, p, q, eids, win_idx)
        assert _union_overlay(got, p, q, eids, win_idx) == expected
        assert np.array_equal(got.parent, ref.parent)
        assert np.array_equal(got.in_mst, ref.in_mst)

    def test_reached_cycle_raises_before_any_write(self):
        parent = np.arange(8, dtype=np.int64)
        parent[5], parent[6] = 6, 5  # 2-cycle ...
        parent[7] = 5  # ... reachable from 7
        p = np.array([0, 2, 4])
        q = np.array([1, 3, 7])
        eids = np.array([0, 1, 2])
        win_idx = np.arange(3)
        in_mst = np.zeros(3, dtype=bool)
        ref = _union_state(parent, in_mst)
        got = _union_state(parent, in_mst)
        with pytest.raises(InvariantViolation) as scalar:
            _union_scalar(ref, p, q, eids, win_idx)
        with pytest.raises(InvariantViolation) as overlay:
            _union_overlay(got, p, q, eids, win_idx)
        for err in (scalar.value, overlay.value):
            assert (err.invariant, err.kernel) == ("parent-acyclic", "k2_union")
        # The scalar loop linked two winners before it hit the cycle;
        # the overlay resolves every start-of-call root first.
        assert ref.in_mst[:2].all()
        assert np.array_equal(got.parent, parent)
        assert not got.in_mst.any()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m_offset=st.sampled_from([-1, 0, 1, None]),
        n_extra=st.sampled_from([0, 40, 2000]),
        chain_share=st.sampled_from([0.0, 0.1, 0.5]),
        hub_share=st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_hooking_forest_matches_scalar_loop(
        self, seed, m_offset, n_extra, chain_share, hub_share
    ):
        rng = np.random.default_rng(seed)
        crossover = kernels._PEEL_MIN_WINNERS
        m = 5000 if m_offset is None else crossover + m_offset
        parent, p, q, eids, win_idx = _hooking_winners(
            rng, n_extra, m, chain_share, hub_share
        )
        in_mst = rng.random(3 * m) < 0.2
        ref = _union_state(parent, in_mst)
        got = _union_state(parent, in_mst)
        expected = _union_scalar(ref, p, q, eids, win_idx)
        assert _union_overlay(got, p, q, eids, win_idx) == expected
        assert np.array_equal(got.parent, ref.parent)
        assert np.array_equal(got.in_mst, ref.in_mst)

    def test_reached_cycle_raises_before_peeling(self):
        rng = np.random.default_rng(5)
        m = kernels._PEEL_MIN_WINNERS
        parent, p, q, eids, win_idx = _hooking_winners(rng, 0, m, 0.2, 0.05)
        n = parent.size
        # A 2-cycle behind a fresh vertex that the last winner names.
        parent = np.concatenate((parent, [n + 1, n, n]))
        q[win_idx[-1]] = n + 2
        in_mst = np.zeros(3 * m, dtype=bool)
        ref = _union_state(parent, in_mst)
        got = _union_state(parent, in_mst)
        with pytest.raises(InvariantViolation) as scalar:
            _union_scalar(ref, p, q, eids, win_idx)
        with pytest.raises(InvariantViolation) as overlay:
            _union_overlay(got, p, q, eids, win_idx)
        for err in (scalar.value, overlay.value):
            assert (err.invariant, err.kernel) == ("parent-acyclic", "k2_union")
        assert ref.in_mst.any()
        assert np.array_equal(got.parent, parent)
        assert not got.in_mst.any()

    def test_peel_keeps_most_rmat_winners_off_the_serial_walk(self):
        graph = suite.build("rmat22.sym", scale=1.0, seed=1)
        with mock.patch.object(
            kernels, "_overlay_walk", wraps=kernels._overlay_walk
        ) as walk, mock.patch.object(
            kernels, "_union_overlay", wraps=kernels._union_overlay
        ) as union:
            ecl_mst(graph)
        winners = [c.args[4].size for c in union.call_args_list]
        walked = sum(c.args[0].size for c in walk.call_args_list)
        assert max(winners) >= kernels._PEEL_MIN_WINNERS
        assert walked < sum(winners) / 2
