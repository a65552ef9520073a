"""Application-layer tests: clustering, backbones, bottleneck paths."""

import numpy as np
import pytest

from repro.apps import (
    bottleneck_weights,
    kmst_spanner,
    mst_backbone,
    single_linkage_labels,
)
from repro.core.eclmst import ecl_mst
from repro.graph.build import build_csr
from repro.graph.properties import connected_components

from helpers import make_graph


def _blob_graph():
    """Two tight clusters joined by one expensive edge."""
    edges = []
    for base in (0, 5):
        for i in range(base, base + 5):
            for j in range(i + 1, base + 5):
                edges.append((i, j, 1 + (i + j) % 3))
    edges.append((2, 7, 1000))  # bridge
    return make_graph(10, edges, "blobs")


class TestClustering:
    def test_two_clusters_cut_bridge(self):
        labels = single_linkage_labels(_blob_graph(), k=2)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[9]

    def test_k_one_is_components(self, medium_graph):
        labels = single_linkage_labels(medium_graph, k=1)
        n_cc, comp = connected_components(medium_graph)
        assert np.unique(labels).size == n_cc

    def test_k_equals_n_singletons(self, triangle):
        labels = single_linkage_labels(triangle, k=3)
        assert np.unique(labels).size == 3

    def test_reuses_precomputed_result(self, medium_graph):
        r = ecl_mst(medium_graph)
        a = single_linkage_labels(medium_graph, k=4, result=r)
        b = single_linkage_labels(medium_graph, k=4)
        # Same partition (labels may be permuted).
        for x in np.unique(a):
            members = np.flatnonzero(a == x)
            assert np.unique(b[members]).size == 1

    def test_invalid_k(self, triangle):
        with pytest.raises(ValueError):
            single_linkage_labels(triangle, k=0)

    @pytest.mark.parametrize(
        "k, expected",
        [
            (1, [0, 0, 0, 0, 0, 0, 0, 0, 0]),
            (2, [0, 0, 1, 1, 0, 0, 0, 1, 0]),
            (3, [0, 1, 2, 2, 0, 1, 1, 2, 0]),
            (4, [0, 1, 2, 3, 0, 1, 1, 2, 0]),
            (9, [0, 1, 2, 3, 4, 5, 6, 7, 8]),
        ],
    )
    def test_exact_labels_pinned(self, k, expected):
        # Clusters interleave vertex IDs, so the label *numbering* (by
        # each cluster's lowest vertex) is pinned, not just the partition.
        g = make_graph(
            9,
            [(0, 4, 3), (4, 8, 5), (1, 5, 2), (5, 6, 4), (2, 7, 1), (3, 7, 6),
             (0, 1, 40), (6, 2, 50), (3, 8, 45), (1, 2, 60)],
        )
        labels = single_linkage_labels(g, k)
        assert labels.dtype == np.int64
        assert labels.tolist() == expected

    def test_monotone_cluster_counts(self, medium_graph):
        n_cc, _ = connected_components(medium_graph)
        prev = None
        for k in (n_cc, n_cc + 2, n_cc + 5):
            count = np.unique(single_linkage_labels(medium_graph, k)).size
            assert count == min(k, medium_graph.num_vertices)
            if prev is not None:
                assert count >= prev
            prev = count


class TestBackbone:
    def test_backbone_is_the_msf(self, medium_graph):
        bb = mst_backbone(medium_graph)
        r = ecl_mst(medium_graph)
        assert bb.num_edges == r.num_mst_edges
        assert int(bb.weights.sum()) // 2 == r.total_weight

    def test_backbone_preserves_connectivity(self, medium_graph):
        n_before, _ = connected_components(medium_graph)
        n_after, _ = connected_components(mst_backbone(medium_graph))
        assert n_before == n_after

    def test_spanner_k1_equals_backbone(self, medium_graph):
        s1 = kmst_spanner(medium_graph, 1)
        bb = mst_backbone(medium_graph)
        assert s1.num_edges == bb.num_edges

    def test_spanner_grows_with_k(self, medium_graph):
        s1 = kmst_spanner(medium_graph, 1)
        s2 = kmst_spanner(medium_graph, 2)
        assert s2.num_edges >= s1.num_edges
        assert s2.num_edges <= 2 * (medium_graph.num_vertices - 1)

    def test_spanner_subset_of_graph(self, medium_graph):
        s2 = kmst_spanner(medium_graph, 2)
        orig = set(
            zip(*medium_graph.undirected_edges()[:2])
        )
        for a, b, _, _ in zip(*s2.undirected_edges()):
            assert (a, b) in orig

    def test_spanner_k_exhausts_small_graph(self, triangle):
        s = kmst_spanner(triangle, 10)  # more rounds than edges exist
        assert s.num_edges == 3  # everything eventually selected

    def test_invalid_k(self, triangle):
        with pytest.raises(ValueError):
            kmst_spanner(triangle, 0)


class TestBottleneck:
    def test_direct_edge(self):
        g = make_graph(2, [(0, 1, 42)])
        assert bottleneck_weights(g, [(0, 1)]) == [42]

    def test_path_max(self, paper_figure1):
        # MST = {(0,2,1), (2,4,2), (1,3,3), (0,1,4)}.
        # Path 3 -> 4 runs 3-1-0-2-4 with max weight 4.
        assert bottleneck_weights(paper_figure1, [(3, 4)]) == [4]

    def test_self_query(self, triangle):
        assert bottleneck_weights(triangle, [(1, 1)]) == [0]

    def test_cross_component_none(self, two_components):
        assert bottleneck_weights(two_components, [(0, 5)]) == [None]

    def test_out_of_range(self, triangle):
        with pytest.raises(IndexError):
            bottleneck_weights(triangle, [(0, 99)])

    def test_minimax_property(self, medium_graph):
        """The MST bottleneck is <= the max edge of ANY alternative
        path — check against direct edges."""
        u, v, w, _ = medium_graph.undirected_edges()
        picks = np.random.default_rng(0).choice(u.size, size=min(20, u.size), replace=False)
        queries = [(int(u[i]), int(v[i])) for i in picks]
        answers = bottleneck_weights(medium_graph, queries)
        for (a, b), ans, i in zip(queries, answers, picks):
            assert ans is not None
            assert ans <= int(w[i])  # the direct edge is one alternative
