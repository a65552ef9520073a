"""The paper's contribution: ECL-MST on the simulated GPU substrate."""

from .config import DEOPT_STAGE_NAMES, DEOPT_STAGES, EclMstConfig, deopt_stages
from .convergence import (
    boruvka_parallel,
    kruskal_chunked_sorted,
    kruskal_unsorted,
    trace_equivalence,
)
from .eclmst import ecl_mst
from .filtering import FilterPlan, plan_filtering, threshold_accuracy
from .result import MstResult, RoundStats
from .validate import MsfValidationError, validate_msf
from .verify import VerificationError, reference_mst_mask, verify_mst

__all__ = [
    "DEOPT_STAGE_NAMES",
    "DEOPT_STAGES",
    "EclMstConfig",
    "FilterPlan",
    "MsfValidationError",
    "MstResult",
    "RoundStats",
    "VerificationError",
    "boruvka_parallel",
    "deopt_stages",
    "ecl_mst",
    "kruskal_chunked_sorted",
    "kruskal_unsorted",
    "plan_filtering",
    "reference_mst_mask",
    "threshold_accuracy",
    "trace_equivalence",
    "validate_msf",
    "verify_mst",
]
