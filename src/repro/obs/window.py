"""Sliding-window counting for the serving policy's telemetry.

The lifetime counters in :class:`~repro.obs.metrics.MetricsRegistry`
are the right unit of exchange for run profiles (deterministic,
diffable), but the serving policy's ``resilience.policy.*_per_s`` and
``shed_rate`` gauges must reflect the last minute of its decisions
(admitted, shed, retried, ...), not the whole process lifetime.
:class:`SlidingCounter` is a bucketed ring covering ``window_s``
seconds; ``total()``/``rate()`` cover only the still-live buckets.
(Finished queries have their own exact window,
:class:`~repro.obs.slo.SLOTracker`.)

It accepts explicit per-observation timestamps, tolerates
*out-of-order* arrivals (late observations land in their own time
slot as long as they are still inside the window; anything older is
counted in ``dropped`` rather than silently mis-binned), and is
thread-safe — worker threads record, the admin thread reads.

Clocks are injectable (``clock=...``, defaulting to
``time.monotonic``) so window rollover is exactly testable.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

__all__ = ["SlidingCounter"]


class SlidingCounter:
    """Bucketed sliding-window counter.

    The window is split into ``buckets`` equal slices; incrementing
    writes into the slice owning the observation's timestamp, and
    reading sums the slices still inside ``[now - window_s, now]``.
    Resolution is therefore ``window_s / buckets`` — the default 60
    buckets over 60 s gives per-second granularity.
    """

    def __init__(
        self,
        window_s: float = 60.0,
        *,
        buckets: int = 60,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.window_s = float(window_s)
        self.buckets = buckets
        self._width = self.window_s / buckets
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        # slot index (floor(ts / width)) -> accumulated value
        self._slots: dict[int, float] = {}
        self.dropped = 0  # observations older than the window at arrival

    def _slot(self, ts: float) -> int:
        return int(math.floor(ts / self._width))

    def _prune(self, now: float) -> None:
        horizon = self._slot(now - self.window_s)
        if len(self._slots) > 2 * self.buckets:
            stale = [s for s in self._slots if s <= horizon]
            for s in stale:
                del self._slots[s]

    def inc(self, amount: float = 1.0, *, ts: float | None = None) -> None:
        now = self._clock()
        ts = now if ts is None else ts
        with self._lock:
            if ts <= now - self.window_s:
                self.dropped += 1
                return
            self._slots[self._slot(ts)] = (
                self._slots.get(self._slot(ts), 0.0) + amount
            )
            self._prune(now)

    def total(self, *, now: float | None = None) -> float:
        """Sum of observations inside the window ending at ``now``."""
        now = self._clock() if now is None else now
        horizon = self._slot(now - self.window_s)
        with self._lock:
            return sum(v for s, v in self._slots.items() if s > horizon)

    def rate(self, *, now: float | None = None) -> float:
        """Observations per second over the window."""
        return self.total(now=now) / self.window_s
