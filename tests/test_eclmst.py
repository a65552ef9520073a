"""ECL-MST end-to-end correctness and structural tests."""

import math

import numpy as np
import pytest

from repro.core.config import EclMstConfig, deopt_stages
from repro.core.eclmst import ecl_mst
from repro.core.verify import reference_mst_mask, verify_mst
from repro.generators import suite
from repro.gpusim.spec import TITAN_V

from helpers import make_graph


class TestCorrectnessSmall:
    def test_triangle(self, triangle):
        r = ecl_mst(triangle, verify=True)
        assert r.num_mst_edges == 2
        assert r.total_weight == 3  # edges of weight 1 and 2

    def test_paper_figure_example(self, paper_figure1):
        # Figure 2's run selects edges b(1), e(2), c(3), a(4).
        r = ecl_mst(paper_figure1, verify=True)
        assert r.num_mst_edges == 4
        assert r.total_weight == 1 + 2 + 3 + 4

    def test_msf_two_components(self, two_components):
        r = ecl_mst(two_components, verify=True)
        assert r.num_mst_edges == 4  # 2 per triangle
        assert r.total_weight == 1 + 2 + 4 + 5

    def test_path(self, path_graph):
        r = ecl_mst(path_graph, verify=True)
        assert r.num_mst_edges == 11  # every path edge

    def test_star(self, star_graph):
        r = ecl_mst(star_graph, verify=True)
        assert r.num_mst_edges == 20

    def test_empty_graph(self):
        from repro.graph.build import empty_graph

        r = ecl_mst(empty_graph(5), verify=True)
        assert r.num_mst_edges == 0
        assert r.total_weight == 0

    def test_single_edge(self):
        g = make_graph(2, [(0, 1, 9)])
        r = ecl_mst(g, verify=True)
        assert r.total_weight == 9

    def test_equal_weights_tie_broken_by_id(self):
        # All weights equal: the unique MST under (w, eid) keys is the
        # lowest-ID spanning edges.
        g = make_graph(3, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])
        r = ecl_mst(g, verify=True)
        sel = np.flatnonzero(r.in_mst)
        assert sel.tolist() == [0, 1]  # edge IDs in (lo,hi) lex order


class TestCorrectnessGenerators:
    def test_matches_reference(self, medium_graph):
        r = ecl_mst(medium_graph)
        assert np.array_equal(r.in_mst, reference_mst_mask(medium_graph))

    def test_reference_mask_is_cached_read_only(self, medium_graph):
        mask = reference_mst_mask(medium_graph)
        assert reference_mst_mask(medium_graph) is mask
        with pytest.raises(ValueError):
            mask[0] = not mask[0]

    @pytest.mark.parametrize("name", suite.INPUT_NAMES)
    def test_suite_inputs_verified(self, name):
        g = suite.build(name, scale=0.08)
        ecl_mst(g, verify=True)  # raises on any mismatch


class TestAblationEquivalence:
    """Every de-optimized variant must compute the identical MSF."""

    def test_all_stages_same_result(self, medium_graph):
        ref = reference_mst_mask(medium_graph)
        for name, cfg in deopt_stages():
            r = ecl_mst(medium_graph, cfg)
            assert np.array_equal(r.in_mst, ref), name

    def test_individual_toggles(self, medium_graph):
        ref = reference_mst_mask(medium_graph)
        for flag in (
            "atomic_guards",
            "hybrid_parallelization",
            "filtering",
            "implicit_path_compression",
            "single_direction",
            "tuple_worklist",
            "data_driven",
            "edge_centric",
        ):
            cfg = EclMstConfig().with_(**{flag: False})
            r = ecl_mst(medium_graph, cfg)
            assert np.array_equal(r.in_mst, ref), flag

    def test_filter_c_variants(self, medium_graph):
        ref = reference_mst_mask(medium_graph)
        for c in (2.0, 3.0, 4.0):
            r = ecl_mst(medium_graph, EclMstConfig(filter_c=c))
            assert np.array_equal(r.in_mst, ref), c

    def test_seed_does_not_change_result(self, medium_graph):
        ref = reference_mst_mask(medium_graph)
        for seed in range(5):
            r = ecl_mst(medium_graph, EclMstConfig(seed=seed))
            assert np.array_equal(r.in_mst, ref)


class TestStructure:
    def test_round_bound_logarithmic(self, medium_graph):
        r = ecl_mst(medium_graph)
        bound = 2 * (math.log2(medium_graph.num_vertices) + 4)
        assert r.rounds <= bound

    def test_kernel_names_present(self, medium_graph):
        r = ecl_mst(medium_graph)
        names = {k.name for k in r.counters.kernels}
        assert {"init", "k1_reserve", "host_sync"} <= names

    def test_init_launched_twice_with_filtering(self):
        g = suite.build("coPapersDBLP", scale=0.1)  # dense -> filtered
        r = ecl_mst(g)
        assert r.counters.launches_of("init") == 2
        assert r.extra["filter_plan"].active

    def test_init_launched_once_without_filtering(self):
        g = suite.build("USA-road-d.NY", scale=0.1)  # sparse -> no filter
        r = ecl_mst(g)
        assert r.counters.launches_of("init") == 1

    def test_k1_runs_once_more_than_k2(self):
        # The final k1 produces an empty worklist and no k2/k3 follows.
        g = suite.build("USA-road-d.NY", scale=0.1)
        r = ecl_mst(g)
        assert (
            r.counters.launches_of("k1_reserve")
            == r.counters.launches_of("k2_union") + 1
        )

    def test_memcpy_time_positive(self, medium_graph):
        r = ecl_mst(medium_graph)
        assert r.memcpy_seconds > 0
        assert r.modeled_seconds_with_memcpy > r.modeled_seconds

    def test_throughput_helper(self, medium_graph):
        r = ecl_mst(medium_graph)
        t = r.throughput_meps()
        assert t == pytest.approx(
            medium_graph.num_directed_edges / r.modeled_seconds / 1e6
        )

    def test_edges_helper_consistent(self, medium_graph):
        r = ecl_mst(medium_graph)
        u, v, w = r.edges()
        assert u.size == r.num_mst_edges
        assert int(w.sum()) == r.total_weight

    def test_gpu_spec_affects_time_not_result(self, medium_graph):
        a = ecl_mst(medium_graph)
        b = ecl_mst(medium_graph, gpu=TITAN_V)
        assert np.array_equal(a.in_mst, b.in_mst)
        assert a.modeled_seconds != b.modeled_seconds


class TestOptimizationDirections:
    """The Table-5 deltas: removing optimizations must not speed things
    up (except the documented topology-driven dip)."""

    def test_ladder_monotone_after_full(self):
        g = suite.build("r4-2e23.sym", scale=0.5)
        stages = deopt_stages()
        times = {name: ecl_mst(g, cfg).modeled_seconds for name, cfg in stages}
        full = times["ECL-MST"]
        assert times["No Atomic Guards"] >= full
        assert times["No Filter"] > times["No Atomic Guards"] * 0.99
        assert times["Both Edge Dir."] > times["No Impl. Path Compr."]
        assert times["Vertex-Centric"] > 3 * full

    def test_filtering_helps_dense_input(self):
        g = suite.build("coPapersDBLP", scale=0.4)
        with_f = ecl_mst(g, EclMstConfig()).modeled_seconds
        without = ecl_mst(g, EclMstConfig(filtering=False)).modeled_seconds
        assert with_f < without

    def test_single_direction_halves_init_items(self, medium_graph):
        both = ecl_mst(medium_graph, EclMstConfig(single_direction=False))
        one = ecl_mst(medium_graph, EclMstConfig(single_direction=True))
        k1_both = next(k for k in both.counters.kernels if k.name == "k1_reserve")
        k1_one = next(k for k in one.counters.kernels if k.name == "k1_reserve")
        assert k1_both.items >= 2 * k1_one.items * 0.9


class TestVerify:
    def test_verify_passes(self, medium_graph):
        verify_mst(ecl_mst(medium_graph))

    def test_verify_detects_extra_edge(self, medium_graph):
        from repro.core.verify import VerificationError

        r = ecl_mst(medium_graph)
        off = np.flatnonzero(~r.in_mst)
        if off.size:
            r.in_mst[off[0]] = True
            with pytest.raises(VerificationError):
                verify_mst(r)

    def test_verify_detects_missing_edge(self, medium_graph):
        from repro.core.verify import VerificationError

        r = ecl_mst(medium_graph)
        on = np.flatnonzero(r.in_mst)
        r.in_mst[on[0]] = False
        with pytest.raises(VerificationError):
            verify_mst(r)

    def test_verify_detects_wrong_weight(self, medium_graph):
        from repro.core.verify import VerificationError

        r = ecl_mst(medium_graph)
        r.total_weight += 1
        with pytest.raises(VerificationError):
            verify_mst(r)
