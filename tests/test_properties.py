"""Connected components, spanning forests and Table-2 row tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.build import build_csr, empty_graph
from repro.graph.properties import (
    average_degree,
    components,
    connected_components,
    graph_info,
    spanning_forest,
)

from helpers import make_graph


class TestConnectedComponents:
    def test_single_component(self, triangle):
        count, labels = connected_components(triangle)
        assert count == 1
        assert np.unique(labels).size == 1

    def test_two_components(self, two_components):
        count, labels = connected_components(two_components)
        assert count == 2
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_isolated_vertices_counted(self):
        g = make_graph(5, [(0, 1, 1)])
        count, _ = connected_components(g)
        assert count == 4  # {0,1} plus three singletons

    def test_edgeless_graph(self):
        count, labels = connected_components(empty_graph(7))
        assert count == 7
        assert np.array_equal(np.sort(np.unique(labels)), np.arange(7))

    def test_path_is_connected(self, path_graph):
        count, _ = connected_components(path_graph)
        assert count == 1

    def test_matches_networkx(self, medium_graph):
        import networkx as nx

        u, v, _, _ = medium_graph.undirected_edges()
        G = nx.Graph()
        G.add_nodes_from(range(medium_graph.num_vertices))
        G.add_edges_from(zip(u.tolist(), v.tolist()))
        count, _ = connected_components(medium_graph)
        assert count == nx.number_connected_components(G)


class TestComponents:
    def test_labels_numbered_by_lowest_vertex(self):
        count, labels = components(6, np.array([5, 1]), np.array([3, 4]))
        assert count == 4
        assert labels.dtype == np.int64
        assert labels.tolist() == [0, 1, 2, 3, 1, 3]

    def test_no_vertices(self):
        count, labels = components(0, np.array([], int), np.array([], int))
        assert count == 0 and labels.size == 0


def _kruskal_by_order(n, u, v, order):
    """Plain union-find Kruskal, independent of the SciPy helper."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    mask = np.zeros(len(u), dtype=bool)
    for i in order:
        a, b = find(int(u[i])), find(int(v[i]))
        if a != b:
            parent[a] = b
            mask[i] = True
    return mask


@st.composite
def simple_edge_lists(draw):
    """``(n, u, v)`` with no self-loops and no repeated (u, v) pair."""
    n = draw(st.integers(2, 25))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=80,
            unique=True,
        )
    )
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    return n, u, v


class TestSpanningForest:
    @settings(max_examples=80, deadline=None)
    @given(edges=simple_edge_lists(), seed=st.integers(0, 2**31 - 1))
    def test_matches_union_find_kruskal(self, edges, seed):
        n, u, v = edges
        order = np.random.default_rng(seed).permutation(u.size)
        assert np.array_equal(
            spanning_forest(n, u, v, order), _kruskal_by_order(n, u, v, order)
        )

    @settings(max_examples=40, deadline=None)
    @given(edges=simple_edge_lists(), data=st.data())
    def test_repeated_pair_rejected(self, edges, data):
        n, u, v = edges
        if u.size == 0:
            u, v = np.array([0]), np.array([1])
        i = data.draw(st.integers(0, u.size - 1))
        u2, v2 = np.append(u, u[i]), np.append(v, v[i])
        with pytest.raises(ValueError, match="repeated"):
            spanning_forest(n, u2, v2, np.arange(u2.size))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            spanning_forest(3, np.array([0, 2]), np.array([1, 2]), np.arange(2))

    def test_order_decides_the_forest(self):
        u, v = np.array([0, 1, 0]), np.array([1, 2, 2])
        assert spanning_forest(3, u, v, np.array([2, 0, 1])).tolist() == [
            True,
            False,
            True,
        ]

    def test_no_edges(self):
        assert spanning_forest(4, np.array([], int), np.array([], int), np.array([], int)).size == 0


class TestGraphInfo:
    def test_triangle_row(self, triangle):
        info = graph_info(triangle, "test")
        assert info.num_vertices == 3
        assert info.num_edges == 6  # directed slots, per Table 2 convention
        assert info.num_components == 1
        assert info.avg_degree == 2.0
        assert info.max_degree == 2

    def test_star_max_degree(self, star_graph):
        info = graph_info(star_graph)
        assert info.max_degree == 20

    def test_average_degree_empty(self):
        assert average_degree(empty_graph(0)) == 0.0

    def test_row_tuple_shape(self, triangle):
        row = graph_info(triangle, "grid").row()
        assert row[0] == "triangle"
        assert row[3] == "grid"
        assert len(row) == 7
