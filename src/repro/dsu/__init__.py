"""Disjoint-set (union-find) substrate."""

from .arrays import Compression, DisjointSet
from .vectorized import (
    compress_halving_many,
    find_many,
    link_winners,
    resolve_roots,
)

__all__ = [
    "Compression",
    "DisjointSet",
    "compress_halving_many",
    "find_many",
    "link_winners",
    "resolve_roots",
]
