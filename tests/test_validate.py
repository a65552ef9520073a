"""First-principles MSF validator tests."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import kruskal_serial_mst
from repro.core.eclmst import ecl_mst
from repro.core.validate import MsfValidationError, validate_msf
from repro.core.verify import reference_mst_mask
from repro.generators import suite
from repro.graph.build import build_csr
from repro.graph.properties import connected_components

from helpers import make_graph


class TestAcceptsValid:
    def test_generator_results(self, medium_graph):
        validate_msf(ecl_mst(medium_graph))

    def test_msf(self, two_components):
        validate_msf(ecl_mst(two_components))

    def test_empty(self):
        from repro.graph.build import empty_graph

        validate_msf(ecl_mst(empty_graph(3)))


class TestRejectsInvalid:
    def test_cycle_detected(self, triangle):
        r = ecl_mst(triangle)
        r.in_mst[:] = True  # all three triangle edges = a cycle
        r.num_mst_edges = 3
        with pytest.raises(MsfValidationError, match="cycle"):
            validate_msf(r)

    def test_not_spanning_detected(self, paper_figure1):
        r = ecl_mst(paper_figure1)
        on = np.flatnonzero(r.in_mst)
        r.in_mst[on[0]] = False
        r.num_mst_edges -= 1
        u, v, w, eid = paper_figure1.undirected_edges()
        r.total_weight = int(w[r.in_mst[eid]].sum())
        with pytest.raises(MsfValidationError, match="spanning"):
            validate_msf(r)

    def test_non_minimal_detected(self):
        # A spanning tree that is NOT minimum: pick the heavy edge.
        g = make_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 30)])
        r = ecl_mst(g)
        # Swap edge (1,2,w=2) for (0,2,w=30): still a spanning tree.
        u, v, w, eid = g.undirected_edges()
        mask = np.zeros(g.num_edges, dtype=bool)
        mask[eid[(w == 1) | (w == 30)]] = True
        r.in_mst = mask
        r.num_mst_edges = 2
        r.total_weight = 31
        with pytest.raises(MsfValidationError, match="non-minimal"):
            validate_msf(r)

    def test_longer_mask_rejected(self, triangle):
        r = ecl_mst(triangle)
        r.in_mst = np.append(r.in_mst, True)  # names an edge that is not there
        with pytest.raises(MsfValidationError, match="malformed mask"):
            validate_msf(r)

    def test_shorter_mask_rejected(self, paper_figure1):
        r = ecl_mst(paper_figure1)
        r.in_mst = r.in_mst[:-1]
        with pytest.raises(MsfValidationError, match="malformed mask"):
            validate_msf(r)

    def test_cycle_names_first_closing_edge(self, two_components):
        r = ecl_mst(two_components)
        r.in_mst[:] = True
        r.num_mst_edges = two_components.num_edges
        # Edges by ID: (0,1), (0,2), (1,2), ... — (1, 2) closes the first loop.
        with pytest.raises(MsfValidationError, match=r"\(1, 2\) closes a loop"):
            validate_msf(r)

    def test_non_minimal_names_lightest_differing_edge(self):
        g = make_graph(4, [(0, 1, 1), (1, 2, 2), (0, 2, 30), (2, 3, 40), (1, 3, 50)])
        u, v, w, eid = g.undirected_edges()
        r = ecl_mst(g)
        # Swap in both heavy edges: (1, 2, w=2) is the lightest difference.
        mask = np.zeros(g.num_edges, dtype=bool)
        mask[eid[(w == 1) | (w == 30) | (w == 50)]] = True
        r.in_mst, r.num_mst_edges, r.total_weight = mask, 3, 81
        with pytest.raises(MsfValidationError, match=r"skipped edge \(1, 2, w=2\)"):
            validate_msf(r)

    def test_wrong_weight_detected(self, medium_graph):
        r = ecl_mst(medium_graph)
        r.total_weight += 5
        with pytest.raises(MsfValidationError, match="weight"):
            validate_msf(r)

    def test_wrong_count_detected(self, medium_graph):
        r = ecl_mst(medium_graph)
        r.num_mst_edges += 1
        with pytest.raises(MsfValidationError, match="count"):
            validate_msf(r)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(2, 35),
    m=st.integers(0, 100),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_every_result_validates(n, m, seed):
    rng = np.random.default_rng(seed)
    g = build_csr(
        n,
        rng.integers(0, n, m),
        rng.integers(0, n, m),
        rng.integers(1, 500, m),
    )
    validate_msf(ecl_mst(g))


@pytest.mark.parametrize("name", suite.INPUT_NAMES)
def test_suite_references_agree(name):
    """Three independent checks agree on every suite input: the compiled
    reference equals the "PBBS Ser." Python Kruskal, ECL-MST validates,
    and the component count is |V| - |MSF|."""
    g = suite.build(name, scale=0.05, seed=7)
    ref = reference_mst_mask(g)
    assert np.array_equal(ref, kruskal_serial_mst(g).in_mst)
    validate_msf(ecl_mst(g))
    count, _ = connected_components(g)
    assert count == g.num_vertices - int(np.count_nonzero(ref))
