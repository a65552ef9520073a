"""Per-run scratch-array arena.

The kernels allocate the same short-lived arrays every round — cross
masks, packed atomicMin keys, endpoint tag columns — and at service
rates (many solver executions per request) the allocator churn shows
up as real host wall-clock.  A
:class:`ScratchArena` hands out named, capacity-doubling buffers that
live for one run (one :class:`~repro.core.kernels.MstState`), so each
round reuses the previous round's memory.

Buffers are identified by name: requesting the same name twice returns
(a view of) the same backing storage, so two live uses of one name
would alias.  The kernels therefore use one name per distinct role,
and nothing handed out survives past the next request for that name.
Contents are uninitialized unless ``fill`` is given — exactly like
``np.empty`` — which is what makes reuse free.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ScratchArena"]


class ScratchArena:
    """Named reusable scratch buffers with capacity doubling."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self.requests = 0
        self.reuses = 0

    def take(
        self,
        name: str,
        size: int,
        dtype: np.dtype | type = np.int64,
        *,
        fill=None,
    ) -> np.ndarray:
        """A length-``size`` scratch view named ``name``.

        Grows (never shrinks) the backing buffer; a grown buffer at
        least doubles so repeated near-miss sizes don't reallocate
        every round.  ``fill`` initializes the view on every call;
        otherwise contents are whatever the last user left behind.
        """
        size = int(size)
        dt = np.dtype(dtype)
        self.requests += 1
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dt or buf.size < size:
            cap = size if buf is None else max(size, 2 * buf.size)
            buf = np.empty(cap, dtype=dt)
            self._buffers[name] = buf
        else:
            self.reuses += 1
        view = buf[:size]
        if fill is not None:
            view.fill(fill)
        return view

    @property
    def nbytes(self) -> int:
        """Total backing storage held (for metrics/debugging)."""
        return sum(b.nbytes for b in self._buffers.values())
