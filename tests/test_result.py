"""MstResult helper tests."""

import numpy as np
import pytest

from helpers import make_graph
from repro.baselines.registry import get_runner
from repro.bench.harness import SYSTEM2
from repro.core.eclmst import ecl_mst
from repro.generators import suite
from repro.gpusim.counters import RunCounters
from repro.graph.csr import CSRGraph
from repro.core.result import MstResult


def oracle_edges(result):
    """The whole undirected edge list, then the selected rows of it."""
    u, v, w, eid = result.graph.undirected_edges()
    sel = result.in_mst[eid]
    return u[sel], v[sel], w[sel]


def assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestHelpers:
    def test_with_memcpy_sums(self, medium_graph):
        r = ecl_mst(medium_graph)
        assert r.modeled_seconds_with_memcpy == pytest.approx(
            r.modeled_seconds + r.memcpy_seconds
        )

    def test_throughput_with_memcpy_lower(self, medium_graph):
        r = ecl_mst(medium_graph)
        assert r.throughput_meps(include_memcpy=True) < r.throughput_meps()

    def test_edges_sorted_by_id_order(self, paper_figure1):
        r = ecl_mst(paper_figure1)
        u, v, w = r.edges()
        assert np.all(u < v)
        assert sorted(w.tolist()) == [1, 2, 3, 4]

    def test_repr_mentions_algorithm_and_weight(self, triangle):
        r = ecl_mst(triangle)
        text = repr(r)
        assert "ecl-mst" in text and str(r.total_weight) in text

    def test_zero_time_throughput_infinite(self, triangle):
        r = MstResult(
            graph=triangle,
            in_mst=np.zeros(3, dtype=bool),
            total_weight=0,
            num_mst_edges=0,
            rounds=0,
            modeled_seconds=0.0,
            counters=RunCounters(),
        )
        assert r.throughput_meps() == float("inf")

    def test_extra_contains_config_and_plan(self, medium_graph):
        r = ecl_mst(medium_graph)
        assert "config" in r.extra and "filter_plan" in r.extra


class TestEdgesMatchOracle:
    @pytest.mark.parametrize("name", suite.INPUT_NAMES)
    def test_suite_input(self, name):
        r = ecl_mst(suite.build(name, scale=0.06))
        assert r.edges()[0].size == r.num_mst_edges
        assert_same_bytes(r.edges(), oracle_edges(r))

    def test_baseline_result(self):
        g = suite.build("USA-road-d.NY", scale=0.06)
        r = get_runner("PBBS Ser.").run(g, gpu=SYSTEM2.gpu, cpu=SYSTEM2.cpu)
        assert_same_bytes(r.edges(), oracle_edges(r))

    def test_edge_ids_out_of_slot_order(self):
        # Generated graphs number edges in slot order; relabel them so
        # the edge-ID sort has work to do.
        g = suite.build("internet", scale=0.06)
        perm = np.random.default_rng(3).permutation(g.num_edges)
        g = CSRGraph(g.row_ptr, g.col_idx, g.weights, perm[g.edge_ids], name=g.name)
        g.validate()
        assert np.any(np.diff(g.edge_ids[g.edge_sources() < g.col_idx]) < 0)
        r = ecl_mst(g)
        assert_same_bytes(r.edges(), oracle_edges(r))

    def test_edgeless_graph(self):
        r = ecl_mst(make_graph(4, []))
        assert all(a.size == 0 for a in r.edges())
        assert_same_bytes(r.edges(), oracle_edges(r))

    def test_isolated_vertices(self):
        # Vertices 0, 3 and 7 have no edges; the triangle 1-2-4 drops
        # its heaviest edge, and 5-6 is a second tree.
        g = make_graph(8, [(1, 2, 5), (2, 4, 7), (1, 4, 2), (5, 6, 3)])
        r = ecl_mst(g)
        assert r.num_mst_edges == 3
        assert_same_bytes(r.edges(), oracle_edges(r))
