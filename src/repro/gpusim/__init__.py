"""Simulated GPU/CPU execution substrate with exact atomic semantics,
hardware counters and an analytic cost model."""

from .atomics import (
    KEY_INFINITY,
    atomic_min_u64,
    pack_keys,
    unpack_edge_id,
    unpack_weight,
)
from .costmodel import CpuMachine, Device, cpu_phase_seconds, gpu_kernel_seconds
from .counters import KernelCounters, RunCounters
from .spec import (
    CPUSpec,
    GPUSpec,
    PCIE_BANDWIDTH_GBS,
    RTX_3080_TI,
    THREADRIPPER_2950X,
    TITAN_V,
    XEON_GOLD_6226R_X2,
)
from .warp import (
    HYBRID_DEGREE_THRESHOLD,
    edge_centric_cycles,
    hybrid_cycles,
    thread_mode_cycles,
)

__all__ = [
    "CPUSpec",
    "CpuMachine",
    "Device",
    "GPUSpec",
    "HYBRID_DEGREE_THRESHOLD",
    "KEY_INFINITY",
    "KernelCounters",
    "PCIE_BANDWIDTH_GBS",
    "RTX_3080_TI",
    "RunCounters",
    "THREADRIPPER_2950X",
    "TITAN_V",
    "XEON_GOLD_6226R_X2",
    "atomic_min_u64",
    "cpu_phase_seconds",
    "edge_centric_cycles",
    "gpu_kernel_seconds",
    "hybrid_cycles",
    "pack_keys",
    "thread_mode_cycles",
    "unpack_edge_id",
    "unpack_weight",
]
