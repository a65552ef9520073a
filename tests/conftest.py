"""Shared fixtures: small graphs covering the suite's structural variety."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph.build import build_csr
from repro.graph.weights import hash_weight
from repro.generators import (
    delaunay_graph,
    grid2d,
    preferential_attachment,
    random_k_out,
    rmat_graph,
    road_network,
)


from helpers import make_graph  # noqa: F401 (re-exported for tests)


@pytest.fixture(scope="session", autouse=True)
def _run_in_scratch_dir(tmp_path_factory):
    """Run the suite from a temporary directory: what the code under
    test writes relative to the working directory (the flight
    recorder's default ``postmortems/``) never lands in the checkout."""
    home = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cwd"))
    try:
        yield
    finally:
        os.chdir(home)


@pytest.fixture
def triangle():
    """3-cycle with distinct weights; MST = the two lightest edges."""
    return make_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)], "triangle")


@pytest.fixture
def paper_figure1():
    """The 5-vertex example of the paper's Figure 2 (labels a-e).

    Vertices A..E = 0..4; edges: a=(A,B,4), b=(A,C,1), c=(B,D,3),
    d=(C,D,5), e=(C,E,2) — the MST is {b, e, c, a-or...}; weights are
    distinct so the MST is unique: {b(1), e(2), c(3), a(4)}.
    """
    return make_graph(
        5,
        [(0, 1, 4), (0, 2, 1), (1, 3, 3), (2, 3, 5), (2, 4, 2)],
        "fig2",
    )


@pytest.fixture
def two_components():
    """Two triangles, disconnected — an MSF input."""
    return make_graph(
        6,
        [(0, 1, 1), (1, 2, 2), (0, 2, 3), (3, 4, 4), (4, 5, 5), (3, 5, 6)],
        "two-cc",
    )


@pytest.fixture
def path_graph():
    """A 12-vertex path: worst case for round counts."""
    edges = [(i, i + 1, int(hash_weight([i], [i + 1])[0])) for i in range(11)]
    return make_graph(12, edges, "path")


@pytest.fixture
def star_graph():
    """One hub with 20 spokes: degree-skew stress."""
    edges = [(0, i, i * 7 % 23 + 1) for i in range(1, 21)]
    return make_graph(21, edges, "star")


@pytest.fixture(
    params=["grid", "random", "rmat", "pa", "road", "delaunay"],
    ids=lambda p: p,
)
def medium_graph(request):
    """One representative per generator family, small enough for
    exhaustive cross-checking."""
    kind = request.param
    if kind == "grid":
        return grid2d(12, seed=3)
    if kind == "random":
        return random_k_out(300, 3, seed=3)
    if kind == "rmat":
        return rmat_graph(8, edge_factor=6.0, seed=3)
    if kind == "pa":
        return preferential_attachment(300, 4, num_components=3, seed=3)
    if kind == "road":
        return road_network(300, target_avg_degree=2.6, seed=3)
    return delaunay_graph(300, seed=3)
