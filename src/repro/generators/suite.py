"""The 17-input evaluation suite (Table 2), as scaled synthetic analogs.

Each paper input is bound to a generator reproducing its *type*: degree
profile, connected-component structure and weight style.  Absolute
sizes are scaled down (the originals range up to 182M edges, far beyond
what a pure-Python substrate should chew through in benchmarks); the
``scale`` parameter multiplies vertex counts so size trends can still
be swept.

Usage::

    from repro.generators import suite
    g = suite.build("coPapersDBLP")          # default scale
    graphs = suite.build_all(scale=0.5)      # the whole suite, smaller
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..graph.csr import CSRGraph
from .delaunay import delaunay_graph
from .grid import grid2d
from .random_graphs import random_k_out
from .rmat import kronecker, rmat_graph
from .roads import road_network
from .scalefree import internet_topology, preferential_attachment

__all__ = [
    "INPUT_NAMES",
    "MST_INPUT_NAMES",
    "PAPER_TABLE2",
    "InputSpec",
    "SUITE",
    "build",
    "build_all",
]


@dataclass(frozen=True)
class InputSpec:
    """Binding of a paper input name to its synthetic generator."""

    name: str
    kind: str
    builder: Callable[[float, int], CSRGraph]
    single_component: bool  # True rows are "MST inputs" in the tables

    def build(self, scale: float = 1.0, seed: int = 0) -> CSRGraph:
        g = self.builder(scale, seed)
        g.name = self.name
        return g


def _n(base: int, scale: float) -> int:
    return max(16, int(base * scale))


def _side(base: int, scale: float) -> int:
    return max(4, int(base * scale**0.5))


SUITE: dict[str, InputSpec] = {
    # name: generator matched to the Table-2 row (type, d-avg, CC count).
    "2d-2e20.sym": InputSpec(
        "2d-2e20.sym",
        "grid",
        lambda s, seed: grid2d(_side(64, s), seed=seed),
        True,
    ),
    "amazon0601": InputSpec(
        "amazon0601",
        "co-purchases",
        lambda s, seed: preferential_attachment(
            _n(4000, s), 6, num_components=7, seed=seed
        ),
        False,
    ),
    "as-skitter": InputSpec(
        "as-skitter",
        "Internet topo.",
        lambda s, seed: preferential_attachment(
            _n(8000, s), 6, num_components=26, seed=seed
        ),
        False,
    ),
    "citationCiteseer": InputSpec(
        "citationCiteseer",
        "publication cit.",
        lambda s, seed: preferential_attachment(_n(2700, s), 4, seed=seed),
        True,
    ),
    "cit-Patents": InputSpec(
        "cit-Patents",
        "patent cit.",
        lambda s, seed: preferential_attachment(
            _n(9000, s), 4, num_components=40, component_size=6, seed=seed
        ),
        False,
    ),
    "coPapersDBLP": InputSpec(
        "coPapersDBLP",
        "publication cit.",
        lambda s, seed: preferential_attachment(_n(2000, s), 28, seed=seed),
        True,
    ),
    "delaunay_n24": InputSpec(
        "delaunay_n24",
        "triangulation",
        lambda s, seed: delaunay_graph(_n(8000, s), seed=seed),
        True,
    ),
    "europe_osm": InputSpec(
        "europe_osm",
        "road map",
        lambda s, seed: road_network(
            _n(16000, s), target_avg_degree=2.1, seed=seed
        ),
        True,
    ),
    "in-2004": InputSpec(
        "in-2004",
        "web links",
        lambda s, seed: preferential_attachment(
            _n(3500, s), 10, num_components=10, seed=seed
        ),
        False,
    ),
    "internet": InputSpec(
        "internet",
        "Internet topo.",
        lambda s, seed: internet_topology(_n(2000, s), seed=seed),
        True,
    ),
    "kron_g500-logn21": InputSpec(
        "kron_g500-logn21",
        "Kronecker",
        lambda s, seed: kronecker(_log2n(4096, s), edge_factor=48.0, seed=seed),
        False,
    ),
    "r4-2e23.sym": InputSpec(
        "r4-2e23.sym",
        "random",
        lambda s, seed: random_k_out(_n(8192, s), 4, seed=seed),
        True,
    ),
    "rmat16.sym": InputSpec(
        "rmat16.sym",
        "RMAT",
        lambda s, seed: rmat_graph(_log2n(1024, s), edge_factor=7.4, seed=seed),
        False,
    ),
    "rmat22.sym": InputSpec(
        "rmat22.sym",
        "RMAT",
        lambda s, seed: rmat_graph(_log2n(8192, s), edge_factor=7.8, seed=seed),
        False,
    ),
    "soc-LiveJournal1": InputSpec(
        "soc-LiveJournal1",
        "community",
        lambda s, seed: preferential_attachment(
            _n(8000, s), 8, num_components=16, seed=seed
        ),
        False,
    ),
    "USA-road-d.NY": InputSpec(
        "USA-road-d.NY",
        "road map",
        lambda s, seed: road_network(
            _n(4000, s), target_avg_degree=2.8, seed=seed
        ),
        True,
    ),
    "USA-road-d.USA": InputSpec(
        "USA-road-d.USA",
        "road map",
        lambda s, seed: road_network(
            _n(16000, s), target_avg_degree=2.4, seed=seed
        ),
        True,
    ),
}

INPUT_NAMES: tuple[str, ...] = tuple(SUITE)
MST_INPUT_NAMES: tuple[str, ...] = tuple(
    name for name, spec in SUITE.items() if spec.single_component
)


def _log2n(base_n: int, scale: float) -> int:
    """Scale a power-of-two vertex count, returned as the exponent."""
    import math

    n = max(64, int(base_n * scale))
    return max(6, round(math.log2(n)))


def build(name: str, scale: float = 1.0, seed: int = 0) -> CSRGraph:
    """Build the named suite input at the given scale."""
    try:
        spec = SUITE[name]
    except KeyError:
        raise KeyError(
            f"unknown input {name!r}; choose from {', '.join(INPUT_NAMES)}"
        ) from None
    return spec.build(scale, seed)


def build_all(scale: float = 1.0, seed: int = 0) -> dict[str, CSRGraph]:
    """Build the entire 17-graph suite."""
    return {name: spec.build(scale, seed) for name, spec in SUITE.items()}


# Paper Table 2, verbatim, for side-by-side reporting in EXPERIMENTS.md.
PAPER_TABLE2: dict[str, dict] = {
    "2d-2e20.sym": dict(edges=4190208, vertices=1048576, kind="grid", ccs=1, davg=4.0, dmax=4),
    "amazon0601": dict(edges=4886816, vertices=403394, kind="co-purchases", ccs=7, davg=12.1, dmax=2752),
    "as-skitter": dict(edges=22190596, vertices=1696415, kind="Internet topo.", ccs=756, davg=13.1, dmax=35455),
    "citationCiteseer": dict(edges=2313294, vertices=268495, kind="publication cit.", ccs=1, davg=8.6, dmax=1318),
    "cit-Patents": dict(edges=33037894, vertices=3774768, kind="patent cit.", ccs=3627, davg=8.8, dmax=793),
    "coPapersDBLP": dict(edges=30491458, vertices=540486, kind="publication cit.", ccs=1, davg=56.4, dmax=3299),
    "delaunay_n24": dict(edges=100663202, vertices=16777216, kind="triangulation", ccs=1, davg=6.0, dmax=26),
    "europe_osm": dict(edges=108109320, vertices=50912018, kind="road map", ccs=1, davg=2.1, dmax=13),
    "in-2004": dict(edges=27182946, vertices=1382908, kind="web links", ccs=134, davg=19.7, dmax=21869),
    "internet": dict(edges=387240, vertices=124651, kind="Internet topo.", ccs=1, davg=3.1, dmax=151),
    "kron_g500-logn21": dict(edges=182081864, vertices=2097152, kind="Kronecker", ccs=553159, davg=86.8, dmax=213904),
    "r4-2e23.sym": dict(edges=67108846, vertices=8388608, kind="random", ccs=1, davg=8.0, dmax=26),
    "rmat16.sym": dict(edges=967866, vertices=65536, kind="RMAT", ccs=3900, davg=14.8, dmax=569),
    "rmat22.sym": dict(edges=65660814, vertices=4194304, kind="RMAT", ccs=428640, davg=15.7, dmax=3687),
    "soc-LiveJournal1": dict(edges=85702474, vertices=4847571, kind="community", ccs=1876, davg=17.7, dmax=20333),
    "USA-road-d.NY": dict(edges=730100, vertices=264346, kind="road map", ccs=1, davg=2.8, dmax=8),
    "USA-road-d.USA": dict(edges=57708624, vertices=23947347, kind="road map", ccs=1, davg=2.4, dmax=9),
}
