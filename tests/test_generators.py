"""Generator tests: every suite input must match its Table-2 profile."""

import numpy as np
import pytest

from repro.generators import (
    delaunay_graph,
    erdos_renyi,
    grid2d,
    internet_topology,
    kronecker,
    preferential_attachment,
    random_k_out,
    rmat,
    road_network,
    suite,
)
from repro.graph.properties import connected_components, graph_info


class TestGrid:
    def test_shape(self):
        g = grid2d(5)
        assert g.num_vertices == 25
        assert g.num_edges == 2 * 5 * 4  # 2 * side * (side-1)

    def test_degrees_bounded_by_four(self):
        g = grid2d(8)
        assert g.degrees().max() == 4
        assert g.degrees().min() == 2  # corners

    def test_connected(self):
        assert connected_components(grid2d(6))[0] == 1

    def test_minimum_side(self):
        assert grid2d(1).num_edges == 0
        with pytest.raises(ValueError):
            grid2d(0)

    def test_seed_changes_weights_not_structure(self):
        a, b = grid2d(5, seed=0), grid2d(5, seed=1)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert not np.array_equal(a.weights, b.weights)


class TestRandom:
    def test_average_degree_near_2k(self):
        g = random_k_out(2000, 4, seed=1)
        avg = g.num_directed_edges / g.num_vertices
        assert 7.0 < avg <= 8.0

    def test_connected_for_k4(self):
        assert connected_components(random_k_out(2000, 4, seed=1))[0] == 1

    def test_k_validation(self):
        with pytest.raises(ValueError):
            random_k_out(10, 0)

    def test_erdos_renyi_size(self):
        g = erdos_renyi(100, 300, seed=2)
        assert 200 < g.num_edges <= 300


class TestRmatKron:
    def test_rmat_vertex_count(self):
        assert rmat(8).num_vertices == 256

    def test_rmat_many_components(self):
        g = rmat(10, edge_factor=7.4, seed=0)
        assert connected_components(g)[0] > 5  # RMAT leaves isolated IDs

    def test_rmat_skewed_degrees(self):
        g = rmat(10, seed=0)
        degs = g.degrees()
        assert degs.max() > 10 * max(1.0, degs[degs > 0].mean())

    def test_kron_permuted(self):
        # Graph500 permutation decouples degree from vertex ID: the
        # low-ID bias of raw RMAT must not survive.
        g = kronecker(10, seed=0)
        degs = g.degrees().astype(float)
        n = g.num_vertices
        low = degs[: n // 8].mean()
        assert low < 6 * max(1.0, degs.mean())

    def test_kron_high_avg_degree(self):
        g = kronecker(10, edge_factor=24.0, seed=0)
        assert g.num_directed_edges / g.num_vertices > 15


class TestRoads:
    def test_connected(self):
        assert connected_components(road_network(500, seed=4))[0] == 1

    def test_target_degree(self):
        for target in (2.1, 2.4, 2.8):
            g = road_network(1500, target_avg_degree=target, seed=4)
            avg = g.num_directed_edges / g.num_vertices
            assert abs(avg - target) < 0.2, (target, avg)

    def test_small_max_degree(self):
        g = road_network(1500, seed=4)
        assert g.degrees().max() <= 10

    def test_distance_weights_positive(self):
        g = road_network(200, seed=4)
        assert g.weights.min() >= 1

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            road_network(2)


class TestDelaunay:
    def test_planar_edge_bound(self):
        g = delaunay_graph(400, seed=5)
        assert g.num_edges <= 3 * 400 - 6

    def test_connected(self):
        assert connected_components(delaunay_graph(400, seed=5))[0] == 1

    def test_avg_degree_near_six(self):
        g = delaunay_graph(2000, seed=5)
        avg = g.num_directed_edges / g.num_vertices
        assert 5.0 < avg < 6.2

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            delaunay_graph(2)


class TestScaleFree:
    def test_component_count_control(self):
        g = preferential_attachment(800, 4, num_components=5, seed=6)
        assert connected_components(g)[0] == 5

    def test_single_component_default(self):
        g = preferential_attachment(800, 4, seed=6)
        assert connected_components(g)[0] == 1

    def test_hub_degrees(self):
        g = preferential_attachment(2000, 5, seed=6)
        degs = g.degrees()
        assert degs.max() > 8 * degs.mean()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            preferential_attachment(3, 5)

    def test_internet_low_avg_high_hub(self):
        g = internet_topology(2000, seed=7)
        avg = g.num_directed_edges / g.num_vertices
        assert 2.5 < avg < 3.7
        assert g.degrees().max() > 20


# graph_fingerprint digests of every suite input at scale 0.05, seed 7.
# Any change to a generator's output (topology or weights) shows here,
# including the road backbone's tie-break on equal lengths.
SUITE_DIGESTS = {
    "2d-2e20.sym": "f56090e6250cf079",
    "amazon0601": "4e6f939dc1c3558a",
    "as-skitter": "f9496c28eaad963e",
    "citationCiteseer": "bbfbbedac253a2e4",
    "cit-Patents": "857a2f4109a90505",
    "coPapersDBLP": "aef8f8602a20e5b1",
    "delaunay_n24": "05019e3d1ea8fb7a",
    "europe_osm": "94c36654482a1d1e",
    "in-2004": "364ca8d0d94ae045",
    "internet": "d0ea2557393de3a5",
    "kron_g500-logn21": "3977e094bf60d5ec",
    "r4-2e23.sym": "016e0dba0a31638d",
    "rmat16.sym": "d7bf927607a841f8",
    "rmat22.sym": "28a0843f43660a96",
    "soc-LiveJournal1": "c5eae662eab8f504",
    "USA-road-d.NY": "153e37d9c80317e1",
    "USA-road-d.USA": "a2be8b42dbbb15df",
}


class TestSuite:
    def test_digests_cover_the_suite(self):
        assert set(SUITE_DIGESTS) == set(suite.INPUT_NAMES)

    @pytest.mark.parametrize("name", suite.INPUT_NAMES)
    def test_output_is_pinned(self, name):
        from repro.obs.profile import graph_fingerprint

        g = suite.build(name, scale=0.05, seed=7)
        assert graph_fingerprint(g)["digest"] == SUITE_DIGESTS[name]

    def test_all_seventeen_inputs_present(self):
        assert len(suite.SUITE) == 17
        assert set(suite.PAPER_TABLE2) == set(suite.SUITE)

    def test_mst_inputs_are_nine(self):
        # Table 3/4 list 9 single-component ("MST") inputs.
        assert len(suite.MST_INPUT_NAMES) == 9

    @pytest.mark.parametrize("name", suite.INPUT_NAMES)
    def test_input_matches_profile(self, name):
        g = suite.build(name, scale=0.25)
        spec = suite.SUITE[name]
        assert g.name == name
        info = graph_info(g, spec.kind)
        if spec.single_component:
            assert info.num_components == 1, name
        else:
            assert info.num_components > 1, name
        paper = suite.PAPER_TABLE2[name]
        # Average degree within a factor of ~2 of the paper's value.
        assert 0.45 * paper["davg"] < info.avg_degree < 2.2 * paper["davg"], (
            name,
            info.avg_degree,
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown input"):
            suite.build("no-such-graph")

    def test_build_all(self):
        graphs = suite.build_all(scale=0.1)
        assert set(graphs) == set(suite.INPUT_NAMES)

    def test_scale_changes_size(self):
        small = suite.build("r4-2e23.sym", scale=0.1)
        big = suite.build("r4-2e23.sym", scale=0.4)
        assert big.num_vertices > 2 * small.num_vertices

    def test_deterministic_per_seed(self):
        a = suite.build("rmat16.sym", scale=0.2, seed=3)
        b = suite.build("rmat16.sym", scale=0.2, seed=3)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.weights, b.weights)
