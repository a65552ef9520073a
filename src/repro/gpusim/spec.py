"""Hardware specifications for the modeled execution substrates.

The paper evaluates on two systems:

* **System 1** — AMD Threadripper 2950X (16 cores / 32 threads) +
  NVIDIA Titan V (Volta, 80 SMs, 5120 cores, 12 GB HBM2).
* **System 2** — 2× Intel Xeon Gold 6226R (32 cores / 64 threads) +
  NVIDIA RTX 3080 Ti (Ampere, 80 SMs, 10240 cores, 12 GB GDDR6X).

A :class:`GPUSpec`/:class:`CPUSpec` feeds the cost model
(:mod:`repro.gpusim.costmodel`) that converts *counted* work — the
kernels count their actual loads, stores, atomics and pointer jumps —
into modeled seconds.  The constants are calibrated so the suite-wide
performance relationships of the paper (Tables 3-5) hold in shape; the
derivation is documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GPUSpec",
    "CPUSpec",
    "TITAN_V",
    "RTX_3080_TI",
    "THREADRIPPER_2950X",
    "XEON_GOLD_6226R_X2",
    "PCIE_BANDWIDTH_GBS",
]

# Host<->device transfer rate used for the "ECL-MST memcpy" rows.
PCIE_BANDWIDTH_GBS = 6.0


@dataclass(frozen=True)
class GPUSpec:
    """Modeled GPU.

    Attributes
    ----------
    num_sms / cores_per_sm / clock_ghz:
        Raw compute organization; total throughput is
        ``num_sms * cores_per_sm * clock_ghz`` cycles/ns.
    mem_bandwidth_gbs:
        Peak DRAM bandwidth; memory-bound kernels are charged
        ``bytes / bandwidth``.
    warp_size:
        SIMT width (32 on all NVIDIA parts).
    kernel_launch_us:
        Fixed overhead per kernel launch — the bottleneck Pai & Pingali
        flag for memcpy-condition while loops; ECL-MST bounds launches
        at O(log |V|) rounds.
    atomic_gops:
        Sustained global-atomic throughput in 10^9 atomics/s.
    ipc:
        Issue efficiency per core for this irregular, latency-bound
        workload (well below 1.0).
    mem_efficiency:
        Fraction of peak DRAM bandwidth that data-dependent
        gather/scatter traffic actually achieves — graph workloads
        touch scattered 4-16-byte values, so whole 32-byte sectors are
        fetched for a fraction of their payload.
    """

    name: str
    num_sms: int
    cores_per_sm: int
    clock_ghz: float
    mem_bandwidth_gbs: float
    warp_size: int = 32
    kernel_launch_us: float = 0.25
    atomic_gops: float = 2.0
    ipc: float = 0.10
    mem_efficiency: float = 0.12
    # cudaMemcpy of a convergence flag back to the host inside a while
    # loop — the bottleneck Pai & Pingali identify; charged per host
    # round-trip.
    host_sync_us: float = 3.0
    # Atomics to the SAME address serialize at the L2 slice; charged as
    # a critical-path term: (max ops on one address) * this latency.
    atomic_same_address_ns: float = 15.0
    # A single thread's serial loop of data-dependent accesses cannot
    # be hidden by parallelism: (longest per-thread iteration chain) *
    # this latency bounds the kernel from below.
    dependent_access_ns: float = 12.0

    def slowed(self, factor: float) -> "GPUSpec":
        """A uniformly ``factor``× slower copy of this spec.

        Every rate is divided and every fixed latency multiplied by
        ``factor``, so all modeled kernel times scale by exactly
        ``factor`` — the synthetic slowdown behind the ``--slowdown``
        flags of ``serve``, ``sweep`` and ``chaos --serve``.
        """
        import dataclasses

        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        return dataclasses.replace(
            self,
            name=f"{self.name} (x{factor:g} slowdown)",
            clock_ghz=self.clock_ghz / factor,
            mem_bandwidth_gbs=self.mem_bandwidth_gbs / factor,
            atomic_gops=self.atomic_gops / factor,
            kernel_launch_us=self.kernel_launch_us * factor,
            host_sync_us=self.host_sync_us * factor,
            atomic_same_address_ns=self.atomic_same_address_ns * factor,
            dependent_access_ns=self.dependent_access_ns * factor,
        )

    @property
    def effective_bandwidth_gbs(self) -> float:
        return self.mem_bandwidth_gbs * self.mem_efficiency

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def compute_gcycles_per_s(self) -> float:
        """Aggregate useful cycles per second across the chip."""
        return self.total_cores * self.clock_ghz * self.ipc


@dataclass(frozen=True)
class CPUSpec:
    """Modeled CPU.

    ``parallel_efficiency`` captures the memory-bus saturation and
    NUMA effects that keep parallel CPU MST codes far from linear
    scaling; ``sync_us`` is charged once per parallel round (barrier +
    task spawn).
    """

    name: str
    cores: int
    clock_ghz: float
    ipc: float = 1.1
    mem_bandwidth_gbs: float = 60.0
    parallel_efficiency: float = 0.26
    sync_us: float = 1.0

    def compute_gcycles_per_s(self, threads: int = 0) -> float:
        used = threads if threads > 0 else self.cores
        used = min(used, self.cores)
        eff = 1.0 if used == 1 else self.parallel_efficiency
        return used * self.clock_ghz * self.ipc * eff

    def slowed(self, factor: float) -> "CPUSpec":
        """A uniformly ``factor``× slower copy (see ``GPUSpec.slowed``)."""
        import dataclasses

        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        return dataclasses.replace(
            self,
            name=f"{self.name} (x{factor:g} slowdown)",
            clock_ghz=self.clock_ghz / factor,
            mem_bandwidth_gbs=self.mem_bandwidth_gbs / factor,
            sync_us=self.sync_us * factor,
        )


TITAN_V = GPUSpec(
    name="NVIDIA Titan V",
    num_sms=80,
    cores_per_sm=64,
    clock_ghz=1.2,
    mem_bandwidth_gbs=651.0,
)

RTX_3080_TI = GPUSpec(
    name="NVIDIA RTX 3080 Ti",
    num_sms=80,
    cores_per_sm=128,
    clock_ghz=1.665,
    mem_bandwidth_gbs=912.0,
    kernel_launch_us=0.18,
    atomic_gops=3.0,
)

THREADRIPPER_2950X = CPUSpec(
    name="AMD Ryzen Threadripper 2950X",
    cores=16,
    clock_ghz=3.5,
    parallel_efficiency=0.30,
)

XEON_GOLD_6226R_X2 = CPUSpec(
    name="2x Intel Xeon Gold 6226R",
    cores=32,
    clock_ghz=2.9,
    mem_bandwidth_gbs=110.0,
    parallel_efficiency=0.22,
)
