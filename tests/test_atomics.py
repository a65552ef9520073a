"""Packed-key and atomic-semantics tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.atomics import (
    KEY_INFINITY,
    atomic_min_u64,
    pack_keys,
    unpack_edge_id,
    unpack_weight,
)


class TestPacking:
    def test_roundtrip(self):
        w = np.array([0, 1, 77, 2**30], dtype=np.int64)
        e = np.array([0, 5, 2**31, 2**32 - 1], dtype=np.int64)
        keys = pack_keys(w, e)
        assert np.array_equal(unpack_weight(keys), w)
        assert np.array_equal(unpack_edge_id(keys), e)

    def test_weight_dominates_ordering(self):
        k1 = pack_keys([5], [999])
        k2 = pack_keys([6], [0])
        assert k1[0] < k2[0]

    def test_edge_id_breaks_ties(self):
        k1 = pack_keys([5], [3])
        k2 = pack_keys([5], [4])
        assert k1[0] < k2[0]

    def test_infinity_greater_than_everything(self):
        keys = pack_keys([2**30], [2**32 - 1])
        assert keys[0] < KEY_INFINITY

    def test_int32_columns_pack_like_int64(self):
        # The solver's worklist keeps the CSR's int32 weight and ID
        # columns; they are packed through unsigned views.
        w = np.array([0, 1, 77, 2**31 - 1], dtype=np.int32)
        e = np.array([2**31 - 1, 0, 5, 12], dtype=np.int32)
        want = pack_keys(w.astype(np.int64), e.astype(np.int64))
        assert want.dtype == np.uint64
        assert np.array_equal(pack_keys(w, e), want)
        out = np.empty(w.size, dtype=np.uint64)
        assert pack_keys(w, e, out=out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(unpack_weight(want), w)
        with pytest.raises(ValueError, match="31 bits"):
            pack_keys(np.array([-1], dtype=np.int32), e[:1])

    def test_overflowing_weight_rejected(self):
        with pytest.raises(ValueError, match="31 bits"):
            pack_keys([2**31], [0])

    @given(
        w=st.integers(0, 2**31 - 1),
        e=st.integers(0, 2**32 - 1),
    )
    def test_property_roundtrip(self, w, e):
        keys = pack_keys([w], [e])
        assert int(unpack_weight(keys)[0]) == w
        assert int(unpack_edge_id(keys)[0]) == e


class TestAtomicMin:
    def _fresh(self, n=8):
        return np.full(n, KEY_INFINITY, dtype=np.uint64)

    def test_result_independent_of_guard(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 8, 200)
        keys = pack_keys(rng.integers(1, 1000, 200), np.arange(200))
        a, b = self._fresh(), self._fresh()
        atomic_min_u64(a, idx, keys, guarded=True)
        atomic_min_u64(b, idx, keys, guarded=False)
        assert np.array_equal(a, b)

    def test_unguarded_counts_everything(self):
        t = self._fresh()
        executed, skipped = atomic_min_u64(
            t, np.zeros(10, dtype=np.int64), pack_keys(np.arange(1, 11), np.arange(10)),
            guarded=False,
        )
        assert executed == 10 and skipped == 0

    def test_guarded_counts_harmonic_expectation(self):
        # 100 lanes hitting one slot: expect ~H(100) ~= 5.2 executions.
        t = self._fresh()
        keys = pack_keys(np.arange(1, 101), np.arange(100))
        executed, skipped = atomic_min_u64(
            t, np.zeros(100, dtype=np.int64), keys, guarded=True
        )
        assert 1 <= executed <= 10
        assert executed + skipped == 100

    def test_guard_skips_stale_candidates(self):
        t = self._fresh(1)
        atomic_min_u64(t, np.array([0]), pack_keys([5], [0]), guarded=True)
        executed, skipped = atomic_min_u64(
            t, np.array([0, 0]), pack_keys([9, 8], [1, 2]), guarded=True
        )
        assert executed == 0 and skipped == 2
        assert unpack_weight(t)[0] == 5

    def test_empty_input(self):
        t = self._fresh()
        assert atomic_min_u64(t, np.empty(0, int), np.empty(0, np.uint64)) == (0, 0)

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 7), st.integers(1, 500)), max_size=60
        )
    )
    def test_property_final_is_true_min(self, data):
        t = self._fresh()
        if data:
            idx = np.array([d[0] for d in data])
            keys = pack_keys([d[1] for d in data], np.arange(len(data)))
            atomic_min_u64(t, idx, keys, guarded=True)
            for slot in range(8):
                mask = idx == slot
                if mask.any():
                    assert t[slot] == keys[mask].min()
                else:
                    assert t[slot] == KEY_INFINITY
