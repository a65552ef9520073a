"""Synthetic graph generators covering the paper's 17-input suite."""

from .delaunay import delaunay_graph
from .grid import grid2d
from .random_graphs import erdos_renyi, random_k_out
from .rmat import kronecker, rmat_graph
from .roads import road_network
from .scalefree import internet_topology, preferential_attachment
from . import suite

__all__ = [
    "delaunay_graph",
    "erdos_renyi",
    "grid2d",
    "internet_topology",
    "kronecker",
    "preferential_attachment",
    "random_k_out",
    "rmat_graph",
    "road_network",
    "suite",
]
