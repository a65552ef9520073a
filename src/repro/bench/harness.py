"""Experiment harness: run code × input grids and aggregate like the paper.

The paper's protocol (Section 4): median of 9 repetitions, computation
time only (transfers excluded, with a separate "memcpy" row for
ECL-MST), "NC" for MST-only codes on multi-component inputs, and two
geometric means — over all inputs (MSF) and over the single-component
inputs (MST) so the MST-only codes can be compared fairly.

Modeled times are deterministic, so one run per cell is the median of
any number of repetitions.  Each cell is one service
:class:`~repro.service.query.Query` run through
:func:`~repro.service.engine.run_query`, so a traced grid holds one
``query <input>`` tree (``load input``, ``run``) per cell, and its
wall time lives in the ``run`` span.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..errors import NotConnectedError
from ..core.result import MstResult
from ..graph.csr import CSRGraph
from ..obs.trace import NULL_TRACER
from ..gpusim.spec import (
    CPUSpec,
    GPUSpec,
    RTX_3080_TI,
    THREADRIPPER_2950X,
    TITAN_V,
    XEON_GOLD_6226R_X2,
)

__all__ = [
    "SystemSpec",
    "SYSTEM1",
    "SYSTEM2",
    "SYSTEMS",
    "Cell",
    "GridResult",
    "run_cell",
    "run_grid",
    "geomean",
]


@dataclass(frozen=True)
class SystemSpec:
    """One of the paper's two test systems."""

    name: str
    gpu: GPUSpec
    cpu: CPUSpec


SYSTEM1 = SystemSpec("System 1 (Titan V + TR 2950X)", TITAN_V, THREADRIPPER_2950X)
SYSTEM2 = SystemSpec("System 2 (RTX 3080 Ti + 2x Xeon)", RTX_3080_TI, XEON_GOLD_6226R_X2)
# ``Query.system`` numbers them: 1 and 2.
SYSTEMS = (SYSTEM1, SYSTEM2)


@dataclass
class Cell:
    """One (code, input) measurement."""

    code: str
    graph_name: str
    seconds: float | None  # None -> NC
    memcpy_seconds: float = 0.0
    result: MstResult | None = None

    @property
    def is_nc(self) -> bool:
        return self.seconds is None

    def throughput_meps(self, directed_edges: int) -> float | None:
        """Millions of edges per second (Figures 3/4 units)."""
        if self.seconds is None or self.seconds <= 0:
            return None
        return directed_edges / self.seconds / 1e6


@dataclass
class GridResult:
    """All cells of one experiment grid, plus the input graphs."""

    system: SystemSpec
    graphs: dict[str, CSRGraph]
    cells: dict[tuple[str, str], Cell] = field(default_factory=dict)

    def cell(self, code: str, graph_name: str) -> Cell:
        return self.cells[(code, graph_name)]

    def column(self, code: str) -> list[Cell]:
        return [self.cells[(code, g)] for g in self.graphs]

    def geomean_seconds(self, code: str, *, mst_only_names: set[str] | None = None) -> float | None:
        """Geometric mean runtime of a code over (a subset of) inputs.

        ``mst_only_names``: restrict to the single-component inputs
        (the "MST GeoMean" rows); ``None`` uses every input the code
        could run (the "MSF GeoMean" rows — NC anywhere means no MSF
        geomean for that code, as in the paper).
        """
        cells = self.column(code)
        if mst_only_names is not None:
            cells = [c for c in cells if c.graph_name in mst_only_names]
        vals = [c.seconds for c in cells]
        if any(v is None for v in vals):
            return None
        return geomean([v for v in vals if v is not None])


def geomean(values: list[float]) -> float:
    """Geometric mean (values must be positive)."""
    if not values:
        raise ValueError("geomean of empty sequence")
    return statistics.geometric_mean(values)


def run_cell(
    code: str,
    graph: CSRGraph,
    system: SystemSpec,
    *,
    verify: bool = False,
    tracer=None,
) -> Cell:
    """Run one code on one prebuilt input; an NC cell when the code
    is MST-only and the input has several components.

    ``tracer``: optional :class:`~repro.obs.trace.Tracer`; the cell
    records one ``query <input>`` tree into it.
    """
    from ..service.engine import run_query
    from ..service.query import Query

    query = Query(
        input=graph.name,
        code=code,
        system=SYSTEMS.index(system) + 1,
        verify=verify,
    )
    try:
        tracer = tracer if tracer is not None else NULL_TRACER
        _, result = run_query(query, tracer, graph)
    except NotConnectedError:
        return Cell(code, graph.name, seconds=None)
    return Cell(
        code=code,
        graph_name=graph.name,
        seconds=result.modeled_seconds,
        memcpy_seconds=result.memcpy_seconds,
        result=result,
    )


def run_grid(
    codes: tuple[str, ...],
    graphs: dict[str, CSRGraph],
    system: SystemSpec,
    *,
    verify: bool = False,
    tracer=None,
) -> GridResult:
    """Run every code on every input on the given system."""
    grid = GridResult(system=system, graphs=graphs)
    for code in codes:
        for name, graph in graphs.items():
            grid.cells[(code, name)] = run_cell(
                code, graph, system, verify=verify, tracer=tracer
            )
    return grid
