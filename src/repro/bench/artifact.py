"""Artifact-style experiment workflow (paper Appendix).

The SC'23 artifact is organized as: ``set_up.sh`` downloads and
converts the 17 inputs and builds all codes; ``run_all_compare.sh``
runs every code on every input and writes ``[code]_out.csv`` files;
``run_all_deoptimize.sh`` writes ``ecl_mst_[deopts]_out.csv``; the
``generate_*_tables.py`` scripts turn the CSVs into the paper's tables.

This module reproduces that workflow against the synthetic suite:

* :func:`set_up` — materialize the suite as ECL binary files;
* :func:`run_all_compare` — per-code CSVs of (input, runtime, throughput);
* :func:`run_all_deoptimize` — the de-optimization CSV;
* :func:`generate_compare_tables` / :func:`generate_deopt_tables` —
  re-derive the runtime tables *from the CSVs*, so the data path
  matches the artifact's.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path

from ..baselines.registry import TABLE_CODES
from ..core.config import DEOPT_STAGE_NAMES, deopt_stages
from ..core.eclmst import ecl_mst
from ..graph.io import save_ecl
from ..generators import suite as suite_mod
from .harness import SYSTEM2, SystemSpec, geomean, run_grid

__all__ = [
    "set_up",
    "run_all_compare",
    "run_all_deoptimize",
    "generate_compare_tables",
    "generate_deopt_tables",
]


def _code_slug(code: str) -> str:
    return code.lower().replace(" ", "_").replace("-", "_").replace(".", "")


def set_up(
    directory: str | os.PathLike, *, scale: float = 1.0, seed: int = 0
) -> dict[str, Path]:
    """Materialize the 17 inputs as ECL binary files (like ``set_up.sh``)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for name, spec in suite_mod.SUITE.items():
        g = spec.build(scale, seed)
        path = directory / f"{name}.ecl"
        save_ecl(g, path)
        paths[name] = path
    return paths


def run_all_compare(
    directory: str | os.PathLike,
    *,
    system: SystemSpec = SYSTEM2,
    scale: float = 1.0,
    codes: tuple[str, ...] = TABLE_CODES,
) -> dict[str, Path]:
    """Run every code on every input; one ``[code]_out.csv`` per code.

    CSV columns: input, seconds (or "NC"), throughput_meps, mst_edges,
    total_weight.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = run_grid(codes, suite_mod.build_all(scale=scale), system)
    out: dict[str, Path] = {}
    for code in codes:
        path = directory / f"{_code_slug(code)}_out.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["input", "seconds", "throughput_meps", "mst_edges", "total_weight"]
            )
            for name, g in grid.graphs.items():
                r = grid.cell(code, name).result
                if r is None:
                    writer.writerow([name, "NC", "NC", "NC", "NC"])
                    continue
                t = r.modeled_seconds
                writer.writerow(
                    [
                        name,
                        f"{t:.9f}",
                        f"{g.num_directed_edges / t / 1e6:.3f}",
                        r.num_mst_edges,
                        r.total_weight,
                    ]
                )
        out[code] = path
    return out


def run_all_deoptimize(
    directory: str | os.PathLike,
    *,
    system: SystemSpec = SYSTEM2,
    scale: float = 1.0,
) -> Path:
    """The de-optimization sweep CSV (``ecl_mst_deopts_out.csv``)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    graphs = suite_mod.build_all(scale=scale)
    inputs = [n for n in graphs if suite_mod.SUITE[n].single_component]
    path = directory / "ecl_mst_deopts_out.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["input", *DEOPT_STAGE_NAMES])
        for name in inputs:
            row = [name]
            for _, cfg in deopt_stages():
                r = ecl_mst(graphs[name], cfg, gpu=system.gpu)
                row.append(f"{r.modeled_seconds:.9f}")
            writer.writerow(row)
    return path


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def generate_compare_tables(directory: str | os.PathLike) -> str:
    """Rebuild the runtime table from the ``*_out.csv`` files."""
    directory = Path(directory)
    files = sorted(directory.glob("*_out.csv"))
    files = [p for p in files if p.name != "ecl_mst_deopts_out.csv"]
    if not files:
        raise FileNotFoundError(f"no *_out.csv files in {directory}")
    columns: dict[str, dict[str, str]] = {}
    inputs: list[str] = []
    for path in files:
        code = path.stem[: -len("_out")]
        rows = _read_csv(path)
        columns[code] = {r["input"]: r["seconds"] for r in rows}
        if not inputs:
            inputs = [r["input"] for r in rows]

    buf = io.StringIO()
    codes = list(columns)
    header = ["input", *codes]
    buf.write(",".join(header) + "\n")
    for name in inputs:
        buf.write(
            ",".join([name, *(columns[c].get(name, "?") for c in codes)]) + "\n"
        )
    # Geomean rows like the paper's tables.
    for label, predicate in (
        ("MSF GeoMean", lambda n: True),
        (
            "MST GeoMean",
            lambda n: suite_mod.SUITE[n].single_component
            if n in suite_mod.SUITE
            else True,
        ),
    ):
        cells = [label]
        for c in codes:
            vals = [
                columns[c][n] for n in inputs if predicate(n) and n in columns[c]
            ]
            if any(v == "NC" for v in vals) or not vals:
                cells.append("NC")
            else:
                cells.append(f"{geomean([float(v) for v in vals]):.9f}")
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def generate_deopt_tables(directory: str | os.PathLike) -> str:
    """Rebuild Table 5 (plus the geomean row) from the deopt CSV."""
    path = Path(directory) / "ecl_mst_deopts_out.csv"
    rows = _read_csv(path)
    if not rows:
        raise FileNotFoundError(f"empty or missing {path}")
    stages = [k for k in rows[0] if k != "input"]
    buf = io.StringIO()
    buf.write(",".join(["input", *stages]) + "\n")
    for r in rows:
        buf.write(",".join([r["input"], *(r[s] for s in stages)]) + "\n")
    gm = ["MST GeoMean"]
    for s in stages:
        gm.append(f"{geomean([float(r[s]) for r in rows]):.9f}")
    buf.write(",".join(gm) + "\n")
    return buf.getvalue()
