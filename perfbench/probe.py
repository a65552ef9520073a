"""Host-speed probe: a fixed piece of work timed between operations.

On a shared virtual machine the host's speed drifts between levels
about 1.5x apart, for seconds or minutes at a time, and a wall-clock
figure from one run mostly says which level the run landed on.  The
probe measures the drift where the benchmark runs: the same work every
time, half a pure-Python union-find (interpreter-bound, like the road
generator's Kruskal) and half a NumPy argsort (like the vectorized
kernels).  A wall time ``t`` measured between probes taking ``p`` ms is
reported as ``t * NOMINAL_MS / p``: the time the operation would have
taken on a host where the probe takes ``NOMINAL_MS``.  The probe is
benchmark code, so a program change cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time (ms) of the reference host speed the normalized figures
# are quoted at: a typical probe on a 2-vCPU Xeon (AVX-512) KVM guest,
# where it ranged 11-22 ms.  Any fixed value works; runs are compared
# with each other, never with this constant.
NOMINAL_MS = 16.0

_rng = np.random.default_rng(20240613)
_N = 7_000
_EU = _rng.integers(0, _N, 2 * _N).tolist()
_EV = _rng.integers(0, _N, 2 * _N).tolist()
_KEYS = _rng.integers(0, 2**40, 60_000)


def _union_find() -> int:
    parent = list(range(_N))
    joined = 0
    for u, v in zip(_EU, _EV):
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[max(u, v)] = min(u, v)
            joined += 1
    return joined


def _argsort() -> int:
    return int(np.argsort(_KEYS, kind="stable")[0])


def probe_ms() -> float:
    """Time one probe, in milliseconds."""
    t = time.perf_counter()
    _union_find()
    _argsort()
    return (time.perf_counter() - t) * 1e3


class HostSpeed:
    """Probes taken between timed intervals, and the normalization.

    Call :meth:`mark` before the first interval and after every one;
    :meth:`scale` of interval ``i`` averages the probes on either side.
    """

    def __init__(self, warm: int = 3) -> None:
        for _ in range(warm):
            probe_ms()
        self.probes: list[float] = []

    def mark(self) -> None:
        self.probes.append(probe_ms())

    def scale(self, i: int) -> float:
        """Factor turning interval ``i``'s wall time into nominal time."""
        return 2 * NOMINAL_MS / (self.probes[i] + self.probes[i + 1])

    def median_ms(self) -> float:
        return float(np.median(self.probes))
