"""Disjoint-set tests across all path-compression schemes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsu.arrays import Compression, DisjointSet

ALL_SCHEMES = list(Compression)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
class TestBasicOps:
    def test_initially_disjoint(self, scheme):
        d = DisjointSet(5, scheme)
        assert d.num_sets() == 5
        assert all(d.find(i) == i for i in range(5))

    def test_union_merges(self, scheme):
        d = DisjointSet(4, scheme)
        assert d.union(0, 1)
        assert d.same_set(0, 1)
        assert not d.same_set(0, 2)
        assert d.num_sets() == 3

    def test_union_idempotent(self, scheme):
        d = DisjointSet(4, scheme)
        assert d.union(0, 1)
        assert not d.union(1, 0)
        assert d.num_sets() == 3

    def test_chain_union(self, scheme):
        d = DisjointSet(10, scheme)
        for i in range(9):
            d.union(i, i + 1)
        assert d.num_sets() == 1
        assert len({d.find(i) for i in range(10)}) == 1

    def test_link_by_lower_id(self, scheme):
        d = DisjointSet(3, scheme)
        d.union(2, 1)
        # ECL links the higher root under the lower: 1 becomes root.
        assert d.find(2) == 1

    def test_representatives_matches_find(self, scheme):
        d = DisjointSet(20, scheme)
        rng = np.random.default_rng(0)
        for _ in range(15):
            d.union(int(rng.integers(20)), int(rng.integers(20)))
        reps = d.representatives()
        assert all(reps[i] == d.find(i) for i in range(20))


class TestCounters:
    def test_compress_writes_only_with_compression(self):
        chain = 30
        for scheme, expect_writes in [
            (Compression.NONE, False),
            (Compression.HALVING, True),
            (Compression.SPLITTING, True),
            (Compression.FULL, True),
            (Compression.INTERMEDIATE, True),
        ]:
            d = DisjointSet(chain, scheme)
            # Build a deep chain by unioning in an order that leaves depth.
            for i in range(chain - 1):
                d.parent[i + 1] = i  # craft a path 29 -> ... -> 0
            before = d.parent.copy()
            d.find(chain - 1)
            wrote = not np.array_equal(d.parent, before)
            assert wrote == expect_writes, scheme

    def test_full_compression_flattens(self):
        d = DisjointSet(10, Compression.FULL)
        for i in range(9):
            d.parent[i + 1] = i
        d.find(9)
        assert d.parent[9] == 0 and d.parent[5] == 0

    def test_halving_shortens_path(self):
        d = DisjointSet(16, Compression.HALVING)
        for i in range(15):
            d.parent[i + 1] = i
        loads_first = d.find_loads
        d.find(15)
        first = d.find_loads - loads_first
        loads_second = d.find_loads
        d.find(15)
        second = d.find_loads - loads_second
        assert second < first

    def test_unions_count_links_only(self):
        d = DisjointSet(4)
        d.union(0, 1)
        d.union(2, 3)
        d.union(1, 0)
        d.union(0, 3)
        assert d.unions == 3
        assert d.num_sets() == 1


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80
    ),
    scheme=st.sampled_from(ALL_SCHEMES),
)
def test_partition_matches_reference(pairs, scheme):
    """Property: every scheme induces the same partition as a trivial
    label-everything reference implementation."""
    d = DisjointSet(30, scheme)
    labels = list(range(30))
    for a, b in pairs:
        d.union(a, b)
        la, lb = labels[a], labels[b]
        if la != lb:
            labels = [la if x == lb else x for x in labels]
    for i in range(30):
        for j in range(i + 1, 30):
            assert (labels[i] == labels[j]) == d.same_set(i, j)
