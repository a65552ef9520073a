"""Property-based end-to-end tests: ECL-MST equals the unique reference
MSF on arbitrary random graphs, and its weight matches networkx."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import EclMstConfig
from repro.core.eclmst import ecl_mst
from repro.core.verify import reference_mst_mask
from repro.graph.build import build_csr
from repro.graph.weights import WEIGHT_BOUND


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 40))
    m = draw(st.integers(0, 120))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    w = rng.integers(1, draw(st.sampled_from([2, 5, 100, 10_000])), size=m)
    return build_csr(n, u, v, w, name=f"hyp-{n}-{m}")


@st.composite
def distinct_weight_graphs(draw):
    n = draw(st.integers(2, 40))
    m = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    w = rng.choice(10_000, size=m, replace=False) + 1
    return build_csr(n, u, v, w, name=f"distinct-{n}-{m}")


def _msf_pairs(g, mask):
    """The MSF as a set of ``(u, v)`` pairs with ``u < v``."""
    u, v, _, eid = g.undirected_edges()
    sel = mask[eid]
    return set(zip(u[sel].tolist(), v[sel].tolist()))


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(g=random_graphs())
def test_ecl_equals_reference(g):
    r = ecl_mst(g)
    assert np.array_equal(r.in_mst, reference_mst_mask(g))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(g=random_graphs(), stage=st.integers(0, 8))
def test_every_deopt_stage_equals_reference(g, stage):
    from repro.core.config import deopt_stages

    _, cfg = deopt_stages()[stage]
    r = ecl_mst(g, cfg)
    assert np.array_equal(r.in_mst, reference_mst_mask(g))


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(g=random_graphs())
def test_weight_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.num_vertices))
    u, v, w, _ = g.undirected_edges()
    for i in range(u.size):
        G.add_edge(int(u[i]), int(v[i]), weight=int(w[i]))
    expected = sum(
        d["weight"]
        for _, _, d in nx.minimum_spanning_edges(G, algorithm="kruskal", data=True)
    )
    r = ecl_mst(g)
    assert r.total_weight == expected


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(g=random_graphs())
def test_forest_invariants(g):
    """The selected edges form an acyclic subgraph spanning each
    component: |MSF| = |V| - #components and no cycles."""
    from repro.graph.properties import connected_components

    r = ecl_mst(g)
    n_cc, _ = connected_components(g)
    assert r.num_mst_edges == g.num_vertices - n_cc
    # Acyclicity via union-find over the chosen edges.
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    u, v, w = r.edges()
    for i in range(u.size):
        a, b = find(int(u[i])), find(int(v[i]))
        assert a != b, "cycle in reported MSF"
        parent[a] = b


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_filter_seed_invariance(seed):
    """Different sampling seeds change the threshold but never the MSF."""
    rng = np.random.default_rng(7)
    u = rng.integers(0, 30, 200)
    v = rng.integers(0, 30, 200)
    w = rng.integers(1, 1000, 200)
    g = build_csr(30, u, v, w)
    ref = reference_mst_mask(g)
    r = ecl_mst(g, EclMstConfig(seed=seed))
    assert np.array_equal(r.in_mst, ref)


_metamorphic = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_metamorphic
@given(g=distinct_weight_graphs())
def test_monotone_weight_map_keeps_msf(g):
    """A strictly monotone weight map preserves the edge order, so the
    (unique) MSF edge set cannot change."""
    u, v, w, _ = g.undirected_edges()
    w2 = 2 * w + 1
    assert int(w2.max(initial=0)) < WEIGHT_BOUND
    g2 = build_csr(g.num_vertices, u, v, w2)
    expected = _msf_pairs(g, reference_mst_mask(g))
    assert _msf_pairs(g2, reference_mst_mask(g2)) == expected
    assert _msf_pairs(g2, ecl_mst(g2).in_mst) == expected
    assert _msf_pairs(g, ecl_mst(g).in_mst) == expected


@_metamorphic
@given(g=distinct_weight_graphs(), perm_seed=st.integers(0, 2**31 - 1))
def test_vertex_relabelling_maps_msf(g, perm_seed):
    """Renaming vertices renames the MSF: distinct weights make it
    independent of vertex and edge IDs."""
    perm = np.random.default_rng(perm_seed).permutation(g.num_vertices)
    u, v, w, _ = g.undirected_edges()
    g2 = build_csr(g.num_vertices, perm[u], perm[v], w)
    expected = {
        (min(perm[a], perm[b]), max(perm[a], perm[b]))
        for a, b in _msf_pairs(g, reference_mst_mask(g))
    }
    assert _msf_pairs(g2, reference_mst_mask(g2)) == expected
    assert _msf_pairs(g2, ecl_mst(g2).in_mst) == expected
