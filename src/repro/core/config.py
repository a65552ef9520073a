"""ECL-MST configuration: the eight optimizations of Section 3.2/5.3.

Every toggle corresponds to one row of the de-optimization study
(Table 5 / Figure 5).  The stages there are *cumulative* — each version
removes one more optimization than the previous — which
:func:`deopt_stages` reproduces in the paper's order, and
:data:`DEOPT_STAGES` holds the default ladder by stage name.

All configurations compute the identical MSF (the paper verifies every
de-optimized version too); the toggles change only how much work the
simulated hardware performs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import Mapping

__all__ = ["EclMstConfig", "deopt_stages", "DEOPT_STAGE_NAMES", "DEOPT_STAGES"]


@dataclass(frozen=True)
class EclMstConfig:
    """Feature switches for :func:`repro.core.eclmst.ecl_mst`.

    Attributes
    ----------
    atomic_guards:
        Pre-check ``minEdge`` with a plain load and skip the
        ``atomicMin`` when it cannot lower the value.
    hybrid_parallelization:
        Warp-per-vertex for degree ≥ 4 in the (vertex-centric) init
        kernel, thread-per-vertex below.
    filtering:
        One-shot Filter-Kruskal-style split: sample ``filter_samples``
        edge weights, estimate the weight bound of the ``filter_c·|V|``
        lightest edges, run phase 1 under the bound, filter, then phase
        2.  Skipped when the average degree is below ``filter_c``.
    implicit_path_compression:
        Store representatives instead of original endpoints when
        re-appending worklist entries (Line 18 of Alg. 2).  When off,
        entries keep their endpoint IDs and finds use explicit GPU
        path halving.
    single_direction:
        Process each undirected edge once (skip the mirrored CSR slot).
    tuple_worklist:
        AoS 16-byte 4-tuples (one vectorized access) instead of four
        separate arrays.
    data_driven:
        Worklist-driven rounds; when off, every round scans all edges
        (topology-driven).
    edge_centric:
        Assign one worklist *edge* per thread; when off, a thread owns
        a vertex and serially processes all of that vertex's edges.
    hybrid_threshold:
        Degree at which the init kernel hands a vertex to a whole warp
        (the paper uses ``d(v) >= 4``); only meaningful while
        ``hybrid_parallelization`` is on.
    filter_c:
        Target multiple of ``|V|`` for the phase-1 edge budget (the
        paper uses 4; values 2-4 work well).
    filter_samples:
        Number of sampled edge weights (the paper uses 20).
    seed:
        RNG seed for the filter sampling (the §5.4 seed study).

    Malformed values raise at construction: :class:`TypeError` for a
    wrong type, :class:`ValueError` for an out-of-range value.
    """

    atomic_guards: bool = True
    hybrid_parallelization: bool = True
    filtering: bool = True
    implicit_path_compression: bool = True
    single_direction: bool = True
    tuple_worklist: bool = True
    data_driven: bool = True
    edge_centric: bool = True
    hybrid_threshold: int = 4
    filter_c: float = 4.0
    filter_samples: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        for name, want in _FIELD_TYPES:
            value = getattr(self, name)
            if type(value) is want:
                continue
            # Otherwise accept only another integral (or, for filter_c,
            # real) number, such as a numpy scalar, and never a bool.
            abc = numbers.Integral if want is int else numbers.Real
            if want is bool or isinstance(value, bool) or not isinstance(value, abc):
                raise TypeError(f"{name} must be {want.__name__}, got {value!r}")
        if self.filter_samples < 1:
            raise ValueError(
                f"filter_samples must be >= 1, got {self.filter_samples}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.filter_c):
            raise ValueError(f"filter_c must be finite, got {self.filter_c}")

    def with_(self, **kw) -> "EclMstConfig":
        """Functional update (``dataclasses.replace`` shorthand)."""
        return replace(self, **kw)


# Each field takes its default's type: bool, int or float.
_FIELD_TYPES = tuple((f.name, type(f.default)) for f in fields(EclMstConfig))


DEOPT_STAGE_NAMES: tuple[str, ...] = (
    "ECL-MST",
    "No Atomic Guards",
    "Thread-Based",
    "No Filter",
    "No Impl. Path Compr.",
    "Both Edge Dir.",
    "No Tuples",
    "Topology-Driven",
    "Vertex-Centric",
)


def deopt_stages(base: EclMstConfig | None = None) -> list[tuple[str, EclMstConfig]]:
    """The cumulative de-optimization ladder of Table 5.

    Stage *i* removes the first *i* optimizations, in the order the
    paper lists them (Section 5.3).
    """
    cfg = base or EclMstConfig()
    removals = (
        {},
        {"atomic_guards": False},
        {"hybrid_parallelization": False},
        {"filtering": False},
        {"implicit_path_compression": False},
        {"single_direction": False},
        {"tuple_worklist": False},
        {"data_driven": False},
        {"edge_centric": False},
    )
    stages: list[tuple[str, EclMstConfig]] = []
    acc: dict = {}
    for name, removal in zip(DEOPT_STAGE_NAMES, removals):
        acc.update(removal)
        stages.append((name, cfg.with_(**acc)))
    return stages


# The default ladder, built once: stage name -> config (read-only).
# Look a stage up here; call deopt_stages(base) only for a custom base.
DEOPT_STAGES: Mapping[str, EclMstConfig] = MappingProxyType(dict(deopt_stages()))
