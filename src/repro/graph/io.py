"""Graph file IO.

Two formats are supported:

* **ECL binary CSR** — the format the paper's artifact uses for its 17
  inputs (``https://cs.txstate.edu/~burtscher/research/ECLgraph/``):
  a little-endian header ``(num_vertices: int64, num_directed_edges:
  int64, has_weights: int64)`` followed by ``row_ptr`` (int64,
  ``num_vertices + 1`` entries... the original stores 32-bit ``nindex``;
  we keep 64-bit row pointers for graphs whose slot count exceeds
  2^31), ``col_idx`` (int32) and optionally ``weights`` (int32).
  Edge IDs are reconstructed on load from the canonical ordering.

* **Text edge list** — whitespace-separated ``u v [w]`` lines with
  ``#`` comments, the common interchange format of SNAP/DIMACS dumps.

:func:`load_graph`/:func:`save_graph` pick the format (these two, or
:mod:`.formats`' DIMACS and METIS) by file suffix, and
:func:`resolve_input` turns a command-line or query input — a graph
file or a suite input name — into a build-cache key and a loader.
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import GraphFormatError
from .build import build_csr
from .csr import CSRGraph
from .formats import (
    check_vertices,
    load_dimacs,
    load_metis,
    read_lines,
    save_dimacs,
    save_metis,
)
from .weights import WEIGHT_BOUND

__all__ = [
    "save_ecl",
    "load_ecl",
    "save_edge_list",
    "load_edge_list",
    "file_signature",
    "load_graph",
    "save_graph",
    "resolve_input",
]


def file_signature(path: str | os.PathLike) -> tuple[int, int]:
    """Cheap change-detection signature for a graph file.

    ``(size, mtime_ns)`` is the build-cache key component for file
    inputs: editing or replacing the file invalidates cached graphs
    without hashing gigabytes on every query.
    """
    st = os.stat(path)
    return (st.st_size, st.st_mtime_ns)

_MAGIC = b"ECLG\x01\x00"


def _read_exact(f, nbytes: int, path, what: str) -> bytes:
    """Read exactly ``nbytes`` or raise a typed truncation error."""
    data = f.read(nbytes)
    if len(data) != nbytes:
        raise GraphFormatError(
            f"{path}: truncated {what} (expected {nbytes} bytes, "
            f"got {len(data)})"
        )
    return data


def save_ecl(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write ``graph`` in the binary ECL CSR format."""
    path = Path(path)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        header = np.array(
            [graph.num_vertices, graph.num_directed_edges, 1], dtype="<i8"
        )
        f.write(header.tobytes())
        f.write(graph.row_ptr.astype("<i8").tobytes())
        f.write(graph.col_idx.astype("<i4").tobytes())
        f.write(graph.weights.astype("<i4").tobytes())


def load_ecl(path: str | os.PathLike, name: str | None = None) -> CSRGraph:
    """Read a graph written by :func:`save_ecl`.

    The undirected edge IDs are rebuilt from the adjacency structure
    (they are not stored in the file), so a save/load round trip
    reproduces an identical graph.
    """
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise GraphFormatError(f"{path}: not an ECL graph file (bad magic)")
        header = np.frombuffer(_read_exact(f, 24, path, "header"), dtype="<i8")
        n, m, has_weights = (int(x) for x in header)
        if n < 0 or m < 0:
            raise GraphFormatError(
                f"{path}: negative counts in header "
                f"(num_vertices={n}, num_directed_edges={m})"
            )
        if has_weights not in (0, 1):
            raise GraphFormatError(
                f"{path}: has_weights flag must be 0 or 1, got {has_weights}"
            )
        row_ptr = np.frombuffer(
            _read_exact(f, 8 * (n + 1), path, "row_ptr array"), dtype="<i8"
        )
        col_idx = np.frombuffer(
            _read_exact(f, 4 * m, path, "col_idx array"), dtype="<i4"
        )
        if has_weights:
            weights = np.frombuffer(
                _read_exact(f, 4 * m, path, "weights array"), dtype="<i4"
            )
        else:
            weights = np.ones(m, dtype="<i4")
    if n and (row_ptr[0] != 0 or int(row_ptr[-1]) != m):
        raise GraphFormatError(
            f"{path}: inconsistent row pointers (first={int(row_ptr[0])}, "
            f"last={int(row_ptr[-1])}, expected 0 and {m})"
        )
    if np.any(np.diff(row_ptr) < 0):
        raise GraphFormatError(f"{path}: row pointers are not non-decreasing")
    if m and (int(col_idx.min()) < 0 or int(col_idx.max()) >= n):
        raise GraphFormatError(
            f"{path}: adjacency index out of range [0, {n})"
        )
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_ptr))
    mask = src < col_idx
    return build_csr(
        n,
        src[mask],
        col_idx[mask].astype(np.int64),
        weights[mask].astype(np.int64),
        name=name or path.stem,
    )


def save_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write an undirected ``u v w`` text edge list."""
    u, v, w, _ = graph.undirected_edges()
    with open(path, "w") as f:
        f.write(f"# {graph.name}: {graph.num_vertices} vertices, {u.size} edges\n")
        for i in range(u.size):
            f.write(f"{u[i]} {v[i]} {w[i]}\n")


def load_edge_list(
    path: str | os.PathLike | io.TextIOBase,
    *,
    num_vertices: int | None = None,
    name: str | None = None,
) -> CSRGraph:
    """Read a whitespace-separated ``u v [w]`` edge list.

    Lines starting with ``#`` are comments.  Missing weights default to
    1.  ``num_vertices`` defaults to ``max endpoint + 1``.  The graph
    is named ``name``, else the file's stem (``edge-list`` for a
    stream).
    """
    lines, where, name = read_lines(path, name, "edge-list")
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"{where}:{lineno}: expected 'u v [w]', got {line!r}"
            )
        try:
            uu, vv = int(parts[0]), int(parts[1])
            ww = int(parts[2]) if len(parts) > 2 else 1
        except ValueError:
            raise GraphFormatError(
                f"{where}:{lineno}: non-integer token in {line!r}"
            ) from None
        if uu < 0 or vv < 0:
            raise GraphFormatError(
                f"{where}:{lineno}: negative vertex ID in {line!r}"
            )
        if num_vertices is not None:
            check_vertices((uu, vv), 0, num_vertices - 1, where, lineno)
        if ww < 0:
            raise GraphFormatError(
                f"{where}:{lineno}: negative edge weight {ww} "
                "(MST weights must be non-negative integers)"
            )
        if ww >= WEIGHT_BOUND:
            raise GraphFormatError(
                f"{where}:{lineno}: edge weight {ww} does not fit the "
                f"31-bit packed weight:edge-ID atomic key (max "
                f"{WEIGHT_BOUND - 1}); rescale or quantize the weights"
            )
        us.append(uu)
        vs.append(vv)
        ws.append(ww)
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    w = np.asarray(ws, dtype=np.int64)
    if num_vertices is None:
        num_vertices = int(max(u.max(initial=-1), v.max(initial=-1))) + 1
    return build_csr(num_vertices, u, v, w, name=name)


# Suffix -> (reader, writer): the one registry of file formats.
_FORMATS = {
    ".ecl": (load_ecl, save_ecl),
    ".gr": (load_dimacs, save_dimacs),
    ".graph": (load_metis, save_metis),
    ".txt": (load_edge_list, save_edge_list),
}


def _format(path: str | os.PathLike, which: int):
    suffix = Path(path).suffix
    if suffix not in _FORMATS:
        raise GraphFormatError(
            f"{path}: unknown graph format {suffix!r}; use one of {', '.join(_FORMATS)}"
        )
    return _FORMATS[suffix][which]


def load_graph(path: str | os.PathLike) -> CSRGraph:
    """Read a graph file in the format its suffix names."""
    return _format(path, 0)(path)


def save_graph(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write ``graph`` in the format the suffix of ``path`` names."""
    _format(path, 1)(graph, path)


def resolve_input(name: str, scale: float) -> tuple[tuple, Callable[[], CSRGraph]]:
    """``(build-cache key, loader)`` of an input: an existing file in a
    known format, else a suite input name.

    File keys carry a size/mtime signature, so an edited file is a
    miss; suite inputs are keyed on ``(name, scale)`` — generation is
    seeded and deterministic.  Loading an unknown suite name raises
    :class:`GraphFormatError`.
    """
    p = Path(name)
    if p.suffix in _FORMATS and p.exists():
        return ("file", str(p.resolve()), file_signature(p)), lambda: load_graph(name)
    return ("suite", name, repr(float(scale))), lambda: _suite_graph(name, scale)


def _suite_graph(name: str, scale: float) -> CSRGraph:
    from ..generators import suite

    if name not in suite.SUITE:
        raise GraphFormatError(
            f"unknown input {name!r}; choose from {', '.join(suite.INPUT_NAMES)}"
        )
    return suite.build(name, scale=scale)
