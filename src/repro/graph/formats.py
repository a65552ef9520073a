"""Readers/writers for the public graph formats the paper's inputs use.

* **DIMACS shortest-path** (``.gr``) — the 9th DIMACS Implementation
  Challenge format of the USA road graphs: ``c`` comment lines, one
  ``p sp <n> <m>`` problem line, and ``a <u> <v> <w>`` arc lines with
  1-based vertex IDs.  Road inputs ship both directions of every arc;
  the cleanup pipeline (dedup + symmetrize) handles either convention.

* **METIS / Chaco** (``.graph``) — the format of the Galois and
  DIMACS-10 inputs (europe_osm, delaunay, kron, coPapersDBLP): a header
  ``<n> <m> [fmt]`` followed by one adjacency line per vertex (1-based
  neighbor IDs, optionally interleaved with edge weights when
  ``fmt`` ∈ {1, 11}).
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from ..errors import GraphFormatError
from .build import build_csr
from .csr import CSRGraph

__all__ = [
    "load_dimacs",
    "save_dimacs",
    "load_metis",
    "save_metis",
    "read_lines",
    "check_vertices",
]


def read_lines(
    path, name: str | None, stream_name: str
) -> tuple[list[str], str, str]:
    """The lines of a text graph file or stream, the ``where`` its
    errors name (the path, or the graph name for a stream), and the
    graph name: ``name`` if given, else the file's stem, or
    ``stream_name`` for a stream.

    The one line reader of the three text formats: text that is not
    UTF-8 raises :class:`GraphFormatError` instead of a decode error.
    """
    stream = isinstance(path, io.TextIOBase)
    if name is None:
        name = stream_name if stream else Path(path).stem
    where = name if stream else str(path)
    try:
        if stream:
            return path.read().splitlines(), where, name
        text = Path(path).read_bytes().decode("utf-8")
        return text.splitlines(), where, name
    except UnicodeDecodeError as exc:
        if not stream:  # the file's own bytes: name the line
            line = exc.object.count(b"\n", 0, exc.start) + 1
            where = f"{where}:{line}"
        raise GraphFormatError(f"{where}: not UTF-8 text ({exc.reason})") from None


def _ints(tokens: list[str], where: str, lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise GraphFormatError(
            f"{where}:{lineno}: non-integer token in {' '.join(tokens)!r}"
        ) from None


def check_vertices(ids, lo: int, hi: int, where: str, lineno: int) -> None:
    """Every vertex ID of one line must lie in ``[lo, hi]``."""
    if ids and not lo <= min(ids) <= max(ids) <= hi:
        x = next(x for x in ids if not lo <= x <= hi)
        raise GraphFormatError(f"{where}:{lineno}: vertex {x} out of range [{lo}, {hi}]")


# ----------------------------------------------------------------------
# DIMACS .gr
# ----------------------------------------------------------------------
def load_dimacs(
    path: str | os.PathLike | io.TextIOBase, *, name: str | None = None
) -> CSRGraph:
    """Read a DIMACS shortest-path ``.gr`` file; its arc lines must
    number exactly the problem line's ``m``.  The graph is named
    ``name``, else the file's stem (``dimacs`` for a stream)."""
    lines, where, name = read_lines(path, name, "dimacs")
    n = m = None
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "sp":
                raise GraphFormatError(f"{where}:{lineno}: malformed problem line: {line!r}")
            n, m = _ints(parts[2:], where, lineno)
        elif parts[0] == "a":
            if n is None:
                raise GraphFormatError(f"{where}:{lineno}: arc line before problem line")
            if len(parts) != 4:
                raise GraphFormatError(f"{where}:{lineno}: expected 'a u v w', got {line!r}")
            a, b, c = _ints(parts[1:], where, lineno)
            check_vertices((a, b), 1, n, where, lineno)
            us.append(a - 1)
            vs.append(b - 1)
            ws.append(c)
        else:
            raise GraphFormatError(f"{where}:{lineno}: unknown DIMACS line type: {line!r}")
    if n is None:
        raise GraphFormatError(f"{where}: missing 'p sp' problem line")
    if len(us) != m:
        raise GraphFormatError(
            f"{where}: arc count mismatch: problem line says {m}, found {len(us)}"
        )
    return build_csr(
        n,
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.int64),
        name=name,
    )


def save_dimacs(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write a DIMACS ``.gr`` file (both directions, as the road
    inputs do)."""
    src = graph.edge_sources()
    with open(path, "w") as f:
        f.write(f"c {graph.name}\n")
        f.write(f"p sp {graph.num_vertices} {graph.num_directed_edges}\n")
        for i in range(src.size):
            f.write(f"a {src[i] + 1} {graph.col_idx[i] + 1} {graph.weights[i]}\n")


# ----------------------------------------------------------------------
# METIS .graph
# ----------------------------------------------------------------------
def load_metis(
    path: str | os.PathLike | io.TextIOBase, *, name: str | None = None
) -> CSRGraph:
    """Read a METIS/Chaco ``.graph`` file (fmt 0 or 1); its adjacency
    entries must number exactly twice the header's ``m``.  The graph is
    named ``name``, else the file's stem (``metis`` for a stream)."""
    lines, where, name = read_lines(path, name, "metis")
    rows = [(i, l) for i, l in enumerate(lines, 1) if not l.lstrip().startswith("%")]
    # The header is the first non-blank line; adjacency lines may be
    # blank (isolated vertices), so only leading/trailing blanks drop.
    while rows and not rows[0][1].strip():
        rows.pop(0)
    while rows and not rows[-1][1].strip():
        rows.pop()
    if not rows:
        raise GraphFormatError(f"{where}: empty METIS file")
    (hline, header), rows = rows[0], rows[1:]
    fields = header.split()
    if len(fields) < 2:
        raise GraphFormatError(f"{where}:{hline}: expected header 'n m [fmt]', got {header!r}")
    n, m = _ints(fields[:2], where, hline)
    fmt = fields[2] if len(fields) > 2 else "0"
    has_weights = fmt in ("1", "01", "11")
    if fmt not in ("0", "1", "01", "11", "00"):
        raise GraphFormatError(f"{where}:{hline}: unsupported METIS fmt {fmt!r}")
    # Fewer lines than n: trailing isolated vertices whose blank lines
    # were trimmed.
    if len(rows) > n:
        raise GraphFormatError(f"{where}: expected {n} adjacency lines, found {len(rows)}")
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    for v, (lineno, line) in enumerate(rows):
        tokens = _ints(line.split(), where, lineno)
        nbrs = tokens[::2] if has_weights else tokens
        if has_weights and len(tokens) % 2:
            raise GraphFormatError(f"{where}:{lineno}: neighbour {nbrs[-1]} has no weight")
        check_vertices(nbrs, 1, n, where, lineno)
        us.extend([v] * len(nbrs))
        vs.extend(u - 1 for u in nbrs)
        ws.extend(tokens[1::2] if has_weights else [1] * len(nbrs))
    if len(vs) != 2 * m:
        raise GraphFormatError(
            f"{where}: edge count mismatch: header says {m} edges "
            f"({2 * m} adjacency entries), found {len(vs)} entries"
        )
    return build_csr(
        n,
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.int64),
        name=name,
    )


def save_metis(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write a METIS ``.graph`` file with edge weights (fmt 1)."""
    with open(path, "w") as f:
        f.write(f"% {graph.name}\n")
        f.write(f"{graph.num_vertices} {graph.num_edges} 1\n")
        for v in range(graph.num_vertices):
            nbrs = graph.neighbors(v)
            wts = graph.neighbor_weights(v)
            f.write(
                " ".join(f"{nbrs[i] + 1} {wts[i]}" for i in range(nbrs.size))
                + "\n"
            )
