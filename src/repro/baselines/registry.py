"""Runner registry: paper code name → runner, for the service's
:func:`~repro.service.engine.run_query`, which every verb and the
bench harness dispatch through.

Mirrors Table 1 plus our own code.  Each entry knows which hardware
class it runs on (so it gets the right spec per system) and whether it
supports multi-component inputs (MSF) — the harness reports "NC"
otherwise, as the paper does.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from ..core.config import EclMstConfig
from ..core.eclmst import ecl_mst
from ..core.result import MstResult
from ..graph.csr import CSRGraph
from ..gpusim.spec import CPUSpec, GPUSpec
from .cugraph_style import cugraph_mst
from .ecl_cpu import ecl_mst_cpu
from .gunrock_style import gunrock_mst
from .jucele import jucele_mst
from .kruskal import filter_kruskal_mst, kruskal_serial_mst, qkruskal_mst
from .lonestar import lonestar_cpu_mst
from .pbbs import pbbs_parallel_mst
from .prim import prim_mst
from .setia_prim import setia_prim_mst
from .uminho import uminho_cpu_mst, uminho_gpu_mst

__all__ = ["Runner", "RUNNERS", "TABLE_CODES", "get_runner"]


@dataclass(frozen=True)
class Runner:
    """One MST code: display name, hardware class, MSF capability."""

    name: str
    kind: str  # "gpu" | "cpu-parallel" | "cpu-serial"
    supports_msf: bool
    fn: Callable[..., MstResult]

    def accepts_tracer(self) -> bool:
        """Whether the underlying code takes a ``tracer`` kwarg."""
        try:
            return "tracer" in inspect.signature(self.fn).parameters
        except (TypeError, ValueError):  # pragma: no cover - builtins
            return False

    def run(
        self, graph: CSRGraph, *, gpu: GPUSpec, cpu: CPUSpec, tracer=None
    ) -> MstResult:
        # Tracing is best-effort: codes that were never instrumented
        # simply run untraced (the query's ``run`` span still holds
        # them).
        kwargs = {}
        if tracer is not None and self.accepts_tracer():
            kwargs["tracer"] = tracer
        if self.kind == "gpu":
            return self.fn(graph, gpu=gpu, **kwargs)
        return self.fn(graph, cpu=cpu, **kwargs)


def _ecl(graph: CSRGraph, *, gpu: GPUSpec, tracer=None) -> MstResult:
    return ecl_mst(graph, EclMstConfig(), gpu=gpu, tracer=tracer)


def _cugraph_double(graph: CSRGraph, *, gpu: GPUSpec, tracer=None) -> MstResult:
    return cugraph_mst(graph, gpu=gpu, precision="double", tracer=tracer)


def _cugraph_float(graph: CSRGraph, *, gpu: GPUSpec, tracer=None) -> MstResult:
    return cugraph_mst(graph, gpu=gpu, precision="float", tracer=tracer)


RUNNERS: dict[str, Runner] = {
    "ECL-MST": Runner("ECL-MST", "gpu", True, _ecl),
    "Jucele GPU": Runner("Jucele GPU", "gpu", False, jucele_mst),
    "Gunrock GPU": Runner("Gunrock GPU", "gpu", False, gunrock_mst),
    "cuGraph GPU": Runner("cuGraph GPU", "gpu", True, _cugraph_double),
    "cuGraph GPU (float)": Runner("cuGraph GPU (float)", "gpu", True, _cugraph_float),
    "UMinho GPU": Runner("UMinho GPU", "gpu", True, uminho_gpu_mst),
    "Lonestar CPU": Runner("Lonestar CPU", "cpu-parallel", True, lonestar_cpu_mst),
    "PBBS CPU": Runner("PBBS CPU", "cpu-parallel", True, pbbs_parallel_mst),
    "UMinho CPU": Runner("UMinho CPU", "cpu-parallel", True, uminho_cpu_mst),
    "PBBS Ser.": Runner("PBBS Ser.", "cpu-serial", True, kruskal_serial_mst),
    # Related-work algorithms (library extensions, not table rows).
    "qKruskal": Runner("qKruskal", "cpu-serial", True, qkruskal_mst),
    "Filter-Kruskal": Runner("Filter-Kruskal", "cpu-serial", True, filter_kruskal_mst),
    "Prim": Runner("Prim", "cpu-serial", True, prim_mst),
    "Setia Prim": Runner("Setia Prim", "cpu-parallel", True, setia_prim_mst),
    "ECL-MST CPU": Runner("ECL-MST CPU", "cpu-parallel", True, ecl_mst_cpu),
}

# Column order of Tables 3/4 (System 1 omits cuGraph, which is
# incompatible with it — handled by the table definition).
TABLE_CODES: tuple[str, ...] = (
    "ECL-MST",
    "Jucele GPU",
    "Gunrock GPU",
    "cuGraph GPU",
    "UMinho GPU",
    "Lonestar CPU",
    "PBBS CPU",
    "UMinho CPU",
    "PBBS Ser.",
)


def get_runner(name: str) -> Runner:
    try:
        return RUNNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown MST code {name!r}; choose from {', '.join(RUNNERS)}"
        ) from None
