"""Benchmark harness reproducing the paper's tables and figures."""

from .experiments import (
    DEFAULT_SCALE,
    EXPERIMENTS,
    build_suite,
    exp_deopt,
    exp_filter_accuracy,
    exp_kernel_profile,
    exp_runtime_table,
    exp_seed_variability,
    exp_table2,
    exp_throughput_figure,
)
from . import artifact
from .report import generate_report
from .figures import BoxStats, seed_sweep, throughput_series
from .harness import SYSTEM1, SYSTEM2, Cell, GridResult, SystemSpec, geomean, run_grid
from .tables import render_runtime_table, render_table2

__all__ = [
    "BoxStats",
    "artifact",
    "Cell",
    "DEFAULT_SCALE",
    "EXPERIMENTS",
    "GridResult",
    "SYSTEM1",
    "SYSTEM2",
    "SystemSpec",
    "build_suite",
    "exp_deopt",
    "exp_filter_accuracy",
    "exp_kernel_profile",
    "exp_runtime_table",
    "exp_seed_variability",
    "exp_table2",
    "exp_throughput_figure",
    "generate_report",
    "geomean",
    "render_runtime_table",
    "render_table2",
    "run_grid",
    "seed_sweep",
    "throughput_series",
]
