"""Unit tests for edge-list cleanup and CSR assembly."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graph.build import build_csr, empty_graph, from_edge_arrays
from repro.graph.csr import EDGE_ID_DTYPE, INDEX_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE


class TestCleanup:
    def test_self_loops_removed(self):
        g = build_csr(3, [0, 1, 2], [0, 2, 2], [5, 1, 9])
        assert g.num_edges == 1  # (1,2) survives, (0,0) and (2,2) dropped
        g.validate()

    def test_duplicate_edges_merged_min(self):
        g = build_csr(2, [0, 1, 0], [1, 0, 1], [5, 3, 9])
        assert g.num_edges == 1
        assert g.weights[0] == 3  # lightest parallel edge kept

    def test_duplicate_edges_merged_max(self):
        g = build_csr(2, [0, 0], [1, 1], [5, 9], dedup="max")
        assert g.weights[0] == 9

    def test_duplicate_edges_first(self):
        g = build_csr(2, [0, 0], [1, 1], [5, 9], dedup="first")
        assert g.weights[0] == 5

    def test_unknown_dedup_rejected(self):
        with pytest.raises(ValueError, match="dedup"):
            build_csr(2, [0], [1], [1], dedup="median")

    def test_direction_canonicalized(self):
        a = build_csr(3, [2, 1], [0, 0], [4, 7])
        b = build_csr(3, [0, 0], [2, 1], [4, 7])
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.weights, b.weights)

    def test_default_weights_are_one(self):
        g = build_csr(3, [0, 1], [1, 2], None)
        assert set(g.weights.tolist()) == {1}


class TestErrors:
    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="range"):
            build_csr(2, [0], [5], [1])

    def test_negative_endpoint(self):
        with pytest.raises(ValueError, match="range"):
            build_csr(2, [-1], [1], [1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            build_csr(3, [0, 1], [1], [1, 1])

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="one entry"):
            build_csr(3, [0, 1], [1, 2], [1])


class TestAssembly:
    def test_empty_edge_list(self):
        g = build_csr(4, [], [], [])
        assert g.num_edges == 0
        assert g.num_vertices == 4
        g.validate()

    def test_empty_graph_helper(self):
        g = empty_graph(0)
        assert g.num_vertices == 0

    def test_deterministic_edge_ids(self):
        # IDs follow (lo, hi) lexicographic order regardless of input order.
        g1 = build_csr(4, [2, 0, 1], [3, 1, 2], [7, 8, 9])
        g2 = build_csr(4, [0, 1, 2], [1, 2, 3], [8, 9, 7])
        u1, v1, w1, e1 = g1.undirected_edges()
        u2, v2, w2, e2 = g2.undirected_edges()
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
        assert np.array_equal(w1, w2) and np.array_equal(e1, e2)

    def test_isolated_vertices_allowed(self):
        g = build_csr(10, [0], [1], [3])
        assert g.num_vertices == 10
        assert g.degrees()[2:].sum() == 0
        g.validate()

    def test_large_random_roundtrip_valid(self):
        rng = np.random.default_rng(0)
        u = rng.integers(0, 200, 3000)
        v = rng.integers(0, 200, 3000)
        w = rng.integers(1, 1000, 3000)
        g = build_csr(200, u, v, w)
        g.validate()


def lexsort_csr(n, lo, hi, w):
    """Oracle: CSR arrays by two lexsorts, edge IDs in ``(lo, hi)`` order."""
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    eid = np.arange(lo.size)
    src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    dw, de = np.concatenate([w, w]), np.concatenate([eid, eid])
    slot = np.lexsort((dst, src))
    row_ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(src[slot], minlength=n), out=row_ptr[1:])
    return (
        row_ptr,
        dst[slot].astype(VERTEX_DTYPE),
        dw[slot].astype(WEIGHT_DTYPE),
        de[slot].astype(EDGE_ID_DTYPE),
    )


@st.composite
def clean_edges(draw):
    """A duplicate-free ``lo < hi`` edge set on ``n`` vertices, shuffled."""
    n = draw(st.integers(1, 60))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    w = draw(st.lists(st.integers(0, 2**31 - 1), min_size=len(chosen), max_size=len(chosen)))
    lo = np.array([a for a, _ in chosen], dtype=np.int64)
    hi = np.array([b for _, b in chosen], dtype=np.int64)
    return n, lo, hi, np.array(w, dtype=np.int64)


class TestFromEdgeArrays:
    @settings(max_examples=200, deadline=None)
    @given(edges=clean_edges())
    def test_matches_lexsort_oracle(self, edges):
        n, lo, hi, w = edges
        g = from_edge_arrays(n, lo, hi, w)
        got = (g.row_ptr, g.col_idx, g.weights, g.edge_ids)
        for a, b in zip(got, lexsort_csr(n, lo, hi, w)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "lo,hi,match",
        [
            ([0, 2], [1, 2], "not lo < hi"),
            ([1, 0], [0, 1], "not lo < hi"),
            ([0, 1, 0], [1, 2, 1], "repeated"),
            ([0], [4], "out of range"),
            ([-1], [2], "out of range"),
        ],
        ids=["self-loop", "lo-above-hi", "repeated-pair", "hi-too-big", "negative"],
    )
    def test_contract_violation_raises(self, lo, hi, match):
        w = np.ones(len(lo), dtype=np.int64)
        with pytest.raises(ValueError, match=match):
            from_edge_arrays(4, np.array(lo), np.array(hi), w)


def lexsort_build(n, u, v, w, dedup):
    """Oracle: cleanup with the lexsort dedup (``np.unique`` for
    ``"first"``), then the lexsort CSR assembly."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    lo, hi, w = lo[keep], hi[keep], w[keep]
    key = lo * n + hi
    if dedup == "first":
        _, sel = np.unique(key, return_index=True)
    else:
        order = np.lexsort((w if dedup == "min" else -w, key))
        firsts = np.ones(key.size, dtype=bool)
        firsts[1:] = key[order][1:] != key[order][:-1]
        sel = order[firsts]
    return lexsort_csr(n, lo[sel], hi[sel], w[sel])


@st.composite
def raw_edges(draw):
    """A raw edge list on ``n`` vertices: drawn pairs (self-loops
    included) plus repeats of them in either orientation with their own
    weights, endpoints below ``span`` so the last ``n - span`` vertices
    stay isolated."""
    n = draw(st.integers(1, 60))
    span = draw(st.integers(1, n))
    vertex = st.integers(0, span - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    if pairs:
        repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=40))
        pairs += [(b, a) if flip else (a, b) for (a, b), flip in repeats]
    weight = st.integers(0, 3) | st.integers(0, 2**31 - 1)
    w = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    return n, u, v, np.array(w, dtype=np.int64)


class TestBuildCsrDifferential:
    @settings(max_examples=300, deadline=None)
    @given(edges=raw_edges(), dedup=st.sampled_from(["min", "max", "first"]))
    @example(edges=(3, np.array([], int), np.array([], int), np.array([], int)), dedup="min")
    @example(edges=(4, np.array([1, 2]), np.array([1, 2]), np.array([5, 6])), dedup="max")
    @example(
        edges=(6, np.array([0, 1, 0, 1]), np.array([1, 0, 1, 0]), np.array([3, 1, 3, 7])),
        dedup="first",
    )
    def test_matches_lexsort_oracle(self, edges, dedup):
        n, u, v, w = edges
        g = build_csr(n, u, v, w, dedup=dedup)
        got = (g.row_ptr, g.col_idx, g.weights, g.edge_ids)
        for a, b in zip(got, lexsort_build(n, u, v, w, dedup)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
