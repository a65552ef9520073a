"""Vectorized multi-find tests (the kernel-side DSU operations)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.dsu.vectorized as vz
from repro.dsu.arrays import DisjointSet
from repro.dsu.vectorized import (
    compress_halving_many,
    find_many,
    link_winners,
    resolve_roots,
)
from repro.errors import InvariantViolation


def _random_forest(n: int, seed: int) -> np.ndarray:
    """A random parent forest with edges pointing to lower IDs."""
    rng = np.random.default_rng(seed)
    parent = np.arange(n, dtype=np.int64)
    for v in range(1, n):
        if rng.random() < 0.8:
            parent[v] = rng.integers(0, v)
    return parent


class TestFindMany:
    def test_identity_on_roots(self):
        parent = np.arange(10, dtype=np.int64)
        roots, loads = find_many(parent, np.arange(10))
        assert np.array_equal(roots, np.arange(10))
        assert loads == 10  # one load per lane

    def test_matches_scalar_finds(self):
        parent = _random_forest(50, 1)
        d = DisjointSet(50)
        d.parent = parent.copy()
        roots, _ = find_many(parent, np.arange(50))
        assert all(roots[i] == d.find(i) for i in range(50))

    def test_does_not_mutate(self):
        parent = _random_forest(30, 2)
        before = parent.copy()
        find_many(parent, np.arange(30))
        assert np.array_equal(parent, before)

    def test_load_count_is_path_lengths(self):
        # Chain 3 -> 2 -> 1 -> 0: find(3) loads parent 4 times
        # (3,2,1,0), find(0) loads once.
        parent = np.array([0, 0, 1, 2], dtype=np.int64)
        _, loads = find_many(parent, np.array([3]))
        assert loads == 4
        _, loads = find_many(parent, np.array([0]))
        assert loads == 1

    def test_empty(self):
        parent = np.arange(5, dtype=np.int64)
        roots, loads = find_many(parent, np.empty(0, dtype=np.int64))
        assert roots.size == 0 and loads == 0

    def test_duplicates_allowed(self):
        parent = np.array([0, 0, 1], dtype=np.int64)
        roots, _ = find_many(parent, np.array([2, 2, 2]))
        assert roots.tolist() == [0, 0, 0]


class TestHalvingMany:
    def test_roots_unchanged_by_halving(self):
        parent = _random_forest(60, 3)
        expected, _ = find_many(parent.copy(), np.arange(60))
        roots, loads, writes = compress_halving_many(parent, np.arange(60))
        assert np.array_equal(roots, expected)

    def test_halving_compresses(self):
        parent = np.array([0, 0, 1, 2, 3, 4], dtype=np.int64)
        _, _, writes = compress_halving_many(parent, np.array([5]))
        assert writes > 0
        # Second traversal must be cheaper than the first.
        _, loads2, _ = compress_halving_many(parent, np.array([5]))
        assert loads2 <= 5

    def test_counts_zero_on_empty(self):
        parent = np.arange(4, dtype=np.int64)
        roots, loads, writes = compress_halving_many(
            parent, np.empty(0, dtype=np.int64)
        )
        assert roots.size == 0 and loads == 0 and writes == 0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
def test_property_halving_preserves_partition(seed, n):
    parent = _random_forest(n, seed)
    expected, _ = find_many(parent.copy(), np.arange(n))
    work = parent.copy()
    roots, _, _ = compress_halving_many(work, np.arange(n))
    assert np.array_equal(roots, expected)
    # Post-compression finds still agree.
    after, _ = find_many(work, np.arange(n))
    assert np.array_equal(after, expected)


def _link_each(parent, p, q, idx):
    """The per-winner find-and-link loop ``link_winners`` replaces."""
    linked = []
    for i in idx:
        a, b = int(p[i]), int(q[i])
        while parent[a] != a:
            a = int(parent[a])
        while parent[b] != b:
            b = int(parent[b])
        if a != b:
            parent[max(a, b)] = min(a, b)
            linked.append(i)
    return linked


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 80),
    seed=st.integers(0, 10_000),
    pairs=st.integers(0, 120),
)
def test_property_link_winners_equals_per_winner_loop(n, seed, pairs):
    # Arbitrary endpoints (roots or not, repeated, self-pairs) and an
    # arbitrary winner order: exactness needs no acyclicity.
    rng = np.random.default_rng(seed)
    parent = _random_forest(n, seed)
    p = rng.integers(0, n, pairs)
    q = rng.integers(0, n, pairs)
    idx = rng.permutation(pairs)[: rng.integers(0, pairs + 1)]
    expect = parent.copy()
    linked = _link_each(expect, p, q, idx)
    got = link_winners(parent, p, q, idx)
    assert got.tolist() == linked
    assert np.array_equal(parent, expect)


def test_link_winners_on_a_cycle_raises_before_writing():
    parent = np.array([1, 0, 2, 3], dtype=np.int64)
    before = parent.copy()
    with pytest.raises(InvariantViolation) as err:
        link_winners(parent, np.array([2, 0]), np.array([3, 2]), np.arange(2))
    assert (err.value.invariant, err.value.kernel) == ("parent-acyclic", "link_winners")
    assert np.array_equal(parent, before)


def _chain(n: int, seed: int) -> np.ndarray:
    """One path of depth n - 1 through a random vertex order."""
    order = np.random.default_rng(seed).permutation(n)
    parent = np.arange(n, dtype=np.int64)
    parent[order[1:]] = order[:-1]
    return parent


def _lane_walk(parent: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, int]:
    roots, hops = resolve_roots(parent, xs, kernel="find_many")
    return roots, int(roots.size + hops.sum())


def _find_counting_walks(parent, xs):
    """find_many, plus how many times it fell back on the lane walk."""
    with mock.patch.object(vz, "resolve_roots", wraps=vz.resolve_roots) as walk:
        out = find_many(parent, xs)
    return out, walk.call_count


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 10_000),
    chain=st.booleans(),
    narrow=st.booleans(),
    offset=st.sampled_from([-1, 0, 1, 7]),
)
def test_property_table_path_equals_lane_walk(n, seed, chain, narrow, offset):
    # Batch sizes straddle the table crossover; drawing n or more lanes
    # from n vertices forces duplicate lanes.
    parent = _chain(n, seed) if chain else _random_forest(n, seed)
    before = parent.copy()
    size = max(0, vz._TABLE_LANES_PER_VERTEX * n + offset)
    xs = np.random.default_rng(seed + 1).integers(0, n, size)
    if narrow:
        xs = xs.astype(np.int32)
    (roots, loads), walks = _find_counting_walks(parent, xs)
    expected_roots, expected_loads = _lane_walk(parent, xs)
    assert np.array_equal(roots, expected_roots)
    assert roots.dtype == np.int64
    assert loads == expected_loads
    assert np.array_equal(parent, before)
    # At or above the crossover the table answers alone.
    assert walks == (0 if size >= vz._TABLE_LANES_PER_VERTEX * n else 1)


class TestTableFaultPaths:
    """Corruption no lane reaches must not raise; corruption a lane
    reaches raises exactly what the lane walk raises."""

    N = 40
    BAD = (30, 31, 32)  # vertices no lane below visits

    def _parent(self, kind: str) -> np.ndarray:
        parent = _random_forest(self.N, 5)
        parent[list(self.BAD)] = list(self.BAD)  # detach 30-32 ...
        parent[33:] = 33  # ... and keep 33+ off them
        a, b, c = self.BAD
        if kind == "out-of-range":
            parent[a] = self.N + 1000
        elif kind == "2-cycle":
            parent[a], parent[b] = b, a
        else:  # a 3-cycle never settles under doubling
            parent[a], parent[b], parent[c] = b, c, a
        return parent

    def _lanes(self, reach: bool) -> np.ndarray:
        xs = np.tile(np.r_[0:30, 33 : self.N], 4)  # 4 lanes per healthy vertex
        if reach:
            xs[7] = self.BAD[0]
        return xs

    @pytest.mark.parametrize("kind", ["out-of-range", "2-cycle", "3-cycle"])
    def test_unreached_corruption_matches_lane_walk(self, kind):
        parent = self._parent(kind)
        before = parent.copy()
        xs = self._lanes(reach=False)
        assert xs.size >= vz._TABLE_LANES_PER_VERTEX * parent.size
        roots, loads = find_many(parent, xs)
        expected_roots, expected_loads = _lane_walk(parent, xs)
        assert np.array_equal(roots, expected_roots)
        assert loads == expected_loads
        assert np.array_equal(parent, before)

    @pytest.mark.parametrize("kind", ["2-cycle", "3-cycle"])
    def test_reached_cycle_raises_typed_violation(self, kind):
        parent = self._parent(kind)
        xs = self._lanes(reach=True)
        with pytest.raises(InvariantViolation) as walked:
            _lane_walk(parent, xs)
        with pytest.raises(InvariantViolation) as found:
            find_many(parent, xs)
        assert found.value.invariant == walked.value.invariant == "parent-acyclic"
        assert found.value.kernel == walked.value.kernel == "find_many"

    def test_reached_out_of_range_raises_index_error(self):
        parent = self._parent("out-of-range")
        xs = self._lanes(reach=True)
        with pytest.raises(IndexError):
            find_many(parent, xs)


def test_negative_lanes_take_the_lane_walk():
    # NumPy wraps negative indices: lane -1 reads parent[19] == 19,
    # which differs from -1, so the lane walk charges it one hop that a
    # table lookup of root 19 would not.
    parent = _random_forest(20, 3)
    parent[19] = 19
    xs = np.r_[np.tile(np.arange(20), vz._TABLE_LANES_PER_VERTEX), -1, -5]
    roots, loads = find_many(parent, xs)
    expected_roots, expected_loads = _lane_walk(parent, xs)
    assert np.array_equal(roots, expected_roots)
    assert loads == expected_loads
