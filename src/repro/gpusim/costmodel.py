"""Counters → modeled seconds.

A kernel launch is charged

``t = launch_overhead + max(compute, memory) + atomic``

with

* ``compute = cycles / (cores * clock * ipc)`` — thread-cycles counted
  by the kernel (including idle SIMT lanes from divergence/imbalance),
* ``memory = bytes / bandwidth`` — the DRAM traffic counted by the
  kernel, and
* ``atomic = atomics / atomic_throughput`` — global atomics serialize
  at the memory controllers, so they are charged separately.

``max(compute, memory)`` models the overlap of computation and memory
on a throughput device; atomics overlap poorly with either on the
contended structures MST uses (minEdge array, worklist tail pointer).

CPU codes use an analogous model with per-round synchronization
overheads instead of kernel launches.
"""

from __future__ import annotations

from ..obs.trace import NULL_TRACER
from .counters import KernelCounters, RunCounters
from .spec import CPUSpec, GPUSpec

__all__ = [
    "gpu_kernel_seconds",
    "kernel_time_terms",
    "cpu_phase_seconds",
    "Device",
    "CpuMachine",
]


def kernel_time_terms(spec: GPUSpec, k: KernelCounters) -> dict[str, float]:
    """The raw per-launch time terms the pricing rule combines, in seconds.

    Keys: ``launch`` (fixed overhead), ``compute``, ``memory``,
    ``serial`` (the dependent-access critical path), the two atomic
    charges ``atomic_throughput`` and ``atomic_serial`` (same-address
    serialization), and ``atomic`` — their max, which is what the
    kernel is actually charged.  :func:`gpu_kernel_seconds` and the
    roofline attribution in :mod:`repro.obs.roofline` both derive from
    this single decomposition, so bound reports always sum back to the
    modeled time.
    """
    atomic_throughput = k.atomics / (spec.atomic_gops * 1e9)
    atomic_serial = k.atomic_max_contention * spec.atomic_same_address_ns * 1e-9
    return {
        "launch": spec.kernel_launch_us * 1e-6,
        "compute": k.cycles / (spec.compute_gcycles_per_s * 1e9),
        "memory": k.bytes / (spec.effective_bandwidth_gbs * 1e9),
        "serial": k.critical_items * spec.dependent_access_ns * 1e-9,
        "atomic_throughput": atomic_throughput,
        "atomic_serial": atomic_serial,
        "atomic": max(atomic_throughput, atomic_serial),
    }


def gpu_kernel_seconds(spec: GPUSpec, k: KernelCounters) -> float:
    """Modeled wall time of one kernel launch on ``spec``.

    The atomic term is the max of the throughput charge and the
    same-address serialization critical path (atomics on one hot
    address execute one at a time at the L2).
    """
    t = kernel_time_terms(spec, k)
    return t["launch"] + max(t["compute"], t["memory"], t["serial"]) + t["atomic"]


def cpu_phase_seconds(
    spec: CPUSpec,
    *,
    ops: float,
    bytes_: float = 0.0,
    threads: int = 0,
    syncs: int = 0,
) -> float:
    """Modeled wall time of one CPU parallel phase.

    ``ops`` is an abstract operation count (comparisons, unions, array
    writes) charged at one cycle each; ``syncs`` counts barriers/task
    joins charged at ``spec.sync_us`` each.
    """
    compute = ops / (spec.compute_gcycles_per_s(threads) * 1e9)
    memory = bytes_ / (spec.mem_bandwidth_gbs * 1e9)
    return max(compute, memory) + syncs * spec.sync_us * 1e-6


class Device:
    """A simulated GPU accumulating kernel launches.

    Algorithms perform their real (NumPy) work, then report the counted
    quantities through :meth:`launch`; the device prices the launch and
    accumulates modeled elapsed time.
    """

    def __init__(self, spec: GPUSpec, tracer=None, fault_injector=None) -> None:
        self.spec = spec
        self.counters = RunCounters()
        self.tracer = NULL_TRACER
        # Resilience hooks: an optional FaultInjector consulted at every
        # launch (may corrupt bound state or raise DeviceFault), and an
        # optional probe running per-kernel invariant checks.  Both are
        # None by default so the fault-free hot path is unchanged.
        self.fault_injector = fault_injector
        self.probe = None
        # Incremental modeled clock for the tracer only (avoids the
        # O(launches) re-summation of ``counters.total_seconds`` per
        # launch); reporting still uses the counters as ground truth.
        self._modeled_elapsed = 0.0
        if tracer is not None:
            self.attach_tracer(tracer)

    def attach_tracer(self, tracer) -> None:
        """Record every launch/sync as a kernel span on ``tracer`` and
        bind this device's modeled clock for container spans."""
        self.tracer = tracer
        tracer.set_modeled_clock(lambda: self._modeled_elapsed)

    def launch(
        self,
        name: str,
        *,
        items: int = 0,
        cycles: float = 0.0,
        bytes_: float = 0.0,
        atomics: int = 0,
        atomics_skipped: int = 0,
        atomic_max_contention: int = 0,
        critical_items: int = 0,
        find_jumps: int = 0,
    ) -> KernelCounters:
        if self.fault_injector is not None:
            # May flip bits in bound solver state or raise DeviceFault
            # (a failed launch) — the recovery layer handles both.
            self.fault_injector.on_launch(name)
        if self.probe is not None:
            # Per-kernel invariant checks (forced-checking degraded
            # mode); raises InvariantViolation on corrupted state.
            self.probe.on_kernel(name)
        k = KernelCounters(
            name=name,
            items=int(items),
            cycles=float(cycles),
            bytes=float(bytes_),
            atomics=int(atomics),
            atomics_skipped=int(atomics_skipped),
            atomic_max_contention=int(atomic_max_contention),
            critical_items=int(critical_items),
            find_jumps=int(find_jumps),
        )
        k.modeled_seconds = gpu_kernel_seconds(self.spec, k)
        self.counters.add(k)
        if self.tracer.enabled:
            self.tracer.kernel(k, self._modeled_elapsed)
            self._modeled_elapsed += k.modeled_seconds
        return k

    def host_sync(self) -> KernelCounters:
        """Charge one device->host convergence-flag round trip (the
        memcpy-in-a-while-loop pattern of Section 2)."""
        k = KernelCounters(name="host_sync")
        k.modeled_seconds = self.spec.host_sync_us * 1e-6
        self.counters.add(k)
        if self.tracer.enabled:
            self.tracer.kernel(k, self._modeled_elapsed)
            self._modeled_elapsed += k.modeled_seconds
        return k

    @property
    def elapsed_seconds(self) -> float:
        return self.counters.total_seconds

    def memcpy_seconds(self, bytes_: float) -> float:
        """Host<->device transfer time over PCIe (for memcpy rows)."""
        from .spec import PCIE_BANDWIDTH_GBS

        return bytes_ / (PCIE_BANDWIDTH_GBS * 1e9) + 20e-6


class CpuMachine:
    """A simulated CPU accumulating parallel/serial phases.

    Reuses :class:`RunCounters` with ``cycles`` holding the op count so
    the reporting layer can treat GPU and CPU runs uniformly.
    """

    def __init__(self, spec: CPUSpec, threads: int = 0, tracer=None) -> None:
        self.spec = spec
        self.threads = threads if threads > 0 else spec.cores
        self.counters = RunCounters()
        self.tracer = NULL_TRACER
        self._modeled_elapsed = 0.0
        if tracer is not None:
            self.attach_tracer(tracer)

    def attach_tracer(self, tracer) -> None:
        """Record every phase as a kernel span on ``tracer``."""
        self.tracer = tracer
        tracer.set_modeled_clock(lambda: self._modeled_elapsed)

    def phase(
        self,
        name: str,
        *,
        ops: float,
        bytes_: float = 0.0,
        items: int = 0,
        syncs: int = 0,
        serial: bool = False,
    ) -> KernelCounters:
        threads = 1 if serial else self.threads
        k = KernelCounters(
            name=name, items=int(items), cycles=float(ops), bytes=float(bytes_)
        )
        k.modeled_seconds = cpu_phase_seconds(
            self.spec, ops=ops, bytes_=bytes_, threads=threads, syncs=syncs
        )
        self.counters.add(k)
        if self.tracer.enabled:
            self.tracer.kernel(k, self._modeled_elapsed)
            self._modeled_elapsed += k.modeled_seconds
        return k

    @property
    def elapsed_seconds(self) -> float:
        return self.counters.total_seconds
