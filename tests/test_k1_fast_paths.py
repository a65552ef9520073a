"""Differential tests for k1's two fast paths.

With data-driven worklists and implicit path compression, k1 finds its
lanes through the tables the previous k2 recorded instead of calling
``find_many_columns``; with atomic guards on and no fault injector it
also skips the p side's guard pass.  Every k1 below is checked against
the slow path on the same state: ``find_many_columns`` on the same
``parent`` for ``p``, ``q`` and the load count, and ``atomic_min_u64``
on both sides, over a copy of ``min_edge``, for the executed and
skipped counts and the reservations.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import eclmst, kernels
from repro.core.config import EclMstConfig
from repro.core.eclmst import ecl_mst
from repro.core.kernels import (
    MstState,
    kernel1_reserve,
    kernel2_union,
    kernel3_reset,
    kernel_init_populate,
)
from repro.dsu.vectorized import find_many_columns
from repro.generators import suite
from repro.generators.suite import INPUT_NAMES
from repro.gpusim.atomics import atomic_min_u64, pack_keys
from repro.gpusim.costmodel import Device
from repro.gpusim.spec import RTX_3080_TI
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.faults import FaultPlan

SCALE = 0.25
FILTER_SEEDS = (1, 2, 3)


def _uses_hop_tables(state) -> bool:
    return state._hop_key is state.wl.front.v


def _checked_k1(state) -> tuple[bool, int]:
    """Run k1 on ``state`` and assert it matches the slow path on the
    state it started from; return whether it read the hop tables, and
    k1's survivor count."""
    wl = state.wl.front
    fast = _uses_hop_tables(state)
    (p, lp), (q, lq) = find_many_columns(state.parent, wl.v, wl.n)
    sel = np.flatnonzero(p != q)
    val = pack_keys(wl.w[sel], wl.eid[sel])
    min_edge = state.min_edge.copy()
    ex_p, sk_p = atomic_min_u64(min_edge, p[sel], val)
    ex_q, sk_q = atomic_min_u64(min_edge, q[sel], val)

    survivors = kernel1_reserve(state)

    launch = state.device.counters.kernels[-1]
    assert np.array_equal(state._round_p, p)
    assert np.array_equal(state._round_q, q)
    assert launch.find_jumps == lp + lq
    assert survivors == sel.size
    assert launch.atomics == ex_p + ex_q + survivors  # + worklist appends
    assert launch.atomics_skipped == sk_p + sk_q
    assert np.array_equal(state.min_edge, min_edge)
    return fast, survivors


class _Spy:
    """Stands in for the solver's k1 and counts which path ran."""

    def __init__(self) -> None:
        self.fast = 0
        self.slow = 0

    def __call__(self, state) -> int:
        fast, survivors = _checked_k1(state)
        self.fast += fast
        self.slow += not fast
        return survivors


@pytest.mark.parametrize("filtering", [True, False], ids=["filter", "nofilter"])
@pytest.mark.parametrize("name", INPUT_NAMES)
def test_every_fast_k1_matches_the_slow_path(name, filtering):
    graph = suite.build(name, scale=SCALE, seed=7)
    for seed in FILTER_SEEDS:
        spy = _Spy()
        cfg = EclMstConfig(seed=seed, filtering=filtering)
        with mock.patch.object(eclmst, "kernel1_reserve", spy):
            r = ecl_mst(graph, cfg)
        # Each phase's first k1 finds the slow way; every later one
        # reads the tables its round's k2 left.
        assert spy.slow == r.counters.launches_of("init")
        assert spy.fast == r.counters.launches_of("k1_reserve") - spy.slow


def _state(graph) -> MstState:
    return MstState.create(graph, EclMstConfig(), Device(RTX_3080_TI))


def _round(state) -> None:
    _checked_k1(state)
    state.wl.swap()
    if len(state.wl.front):
        kernel2_union(state)
        kernel3_reset(state)


@pytest.fixture(scope="module")
def rmat():
    return suite.build("rmat22.sym", scale=SCALE, seed=7)


def _after_rounds(graph, rounds: int) -> MstState:
    state = _state(graph)
    kernel_init_populate(state, None, phase=0)
    for _ in range(rounds):
        _round(state)
    assert _uses_hop_tables(state)
    return state


class TestFallbacks:
    """Every state the hop tables do not describe takes the slow find."""

    def test_k1_right_after_a_populate(self, rmat):
        state = _after_rounds(rmat, 2)
        # A fresh phase-0 front names raw endpoints, most of them no
        # longer roots, whose table entries are stale.
        kernel_init_populate(state, None, phase=0)
        assert not _uses_hop_tables(state)
        assert _checked_k1(state)[0] is False

    def test_k1_after_checkpoint_restore(self, rmat):
        state = _after_rounds(rmat, 1)
        cp = Checkpoint.capture(state)
        _round(state)  # links that the restore undoes
        cp.restore(state)
        assert not _uses_hop_tables(state)
        assert _checked_k1(state)[0] is False
        # The rerun round records afresh; the rest of the run is exact.
        state.wl.swap()
        while len(state.wl.front):
            kernel2_union(state)
            kernel3_reset(state)
            assert _checked_k1(state)[0] is True
            state.wl.swap()
        assert np.array_equal(state.in_mst, ecl_mst(rmat).in_mst)

    def test_k1_after_parent_written_between_init_and_k1(self, rmat):
        state = _after_rounds(rmat, 2)
        kernel_init_populate(state, None, phase=0)
        state.parent[:] = 0  # everything one set already
        assert _checked_k1(state)[0] is False
        assert len(state._round_p) and (state._round_p == 0).all()

    def test_fault_injector_turns_both_fast_paths_off(self, rmat):
        spy = _Spy()
        calls = mock.Mock(wraps=atomic_min_u64)
        with mock.patch.object(eclmst, "kernel1_reserve", spy), \
                mock.patch.object(kernels, "atomic_min_u64", calls):
            armed = ecl_mst(rmat, fault_plan=FaultPlan(seed=0, events=()))
        k1_launches = armed.counters.launches_of("k1_reserve")
        assert spy.fast == 0 and spy.slow == k1_launches
        # Both guard passes go through the atomic, so fault events keep
        # their atomic-batch indices.
        assert calls.call_count == 2 * k1_launches
        plain = ecl_mst(rmat)
        assert np.array_equal(armed.in_mst, plain.in_mst)
        assert armed.counters == plain.counters
        assert repr(armed.modeled_seconds) == repr(plain.modeled_seconds)
