"""Sliding-window aggregation + lifetime-histogram quantile hardening."""

import math

import pytest

from repro.obs.metrics import Histogram
from repro.obs.window import SlidingCounter


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


# ---------------------------------------------------------------------------
# SlidingCounter
# ---------------------------------------------------------------------------
class TestSlidingCounter:
    def test_counts_inside_window(self):
        clk = FakeClock(100.0)
        c = SlidingCounter(window_s=60, clock=clk)
        c.inc()
        c.inc(2.0)
        assert c.total() == 3.0
        assert c.rate() == pytest.approx(3.0 / 60.0)

    def test_rollover_forgets_old_traffic(self):
        clk = FakeClock(0.0)
        c = SlidingCounter(window_s=60, clock=clk)
        for _ in range(10):
            c.inc()
        clk.t = 59.0
        assert c.total() == 10.0
        clk.t = 61.5  # first slot now outside [1.5, 61.5]
        assert c.total() == 0.0

    def test_partial_rollover(self):
        clk = FakeClock(0.5)
        c = SlidingCounter(window_s=10, buckets=10, clock=clk)
        c.inc()  # slot 0
        clk.t = 5.5
        c.inc()  # slot 5
        clk.t = 10.5
        assert c.total() == 1.0  # slot 0 expired, slot 5 lives

    def test_out_of_order_within_window_lands(self):
        clk = FakeClock(30.0)
        c = SlidingCounter(window_s=60, clock=clk)
        c.inc(ts=5.0)  # late but inside the window
        assert c.total() == 1.0
        assert c.dropped == 0

    def test_older_than_window_dropped_not_misbinned(self):
        clk = FakeClock(100.0)
        c = SlidingCounter(window_s=60, clock=clk)
        c.inc(ts=10.0)  # 90s late
        assert c.total() == 0.0
        assert c.dropped == 1

    def test_empty_window_is_zero(self):
        c = SlidingCounter(window_s=60, clock=FakeClock(7.0))
        assert c.total() == 0.0
        assert c.rate() == 0.0

    def test_prune_bounds_memory(self):
        clk = FakeClock(0.0)
        c = SlidingCounter(window_s=10, buckets=10, clock=clk)
        for i in range(500):
            clk.t = float(i)
            c.inc()
        assert len(c._slots) <= 2 * c.buckets

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingCounter(window_s=0)
        with pytest.raises(ValueError):
            SlidingCounter(window_s=10, buckets=0)


# ---------------------------------------------------------------------------
# Lifetime Histogram.quantile hardening (the satellite fix)
# ---------------------------------------------------------------------------
class TestLifetimeHistogramQuantile:
    def test_empty_returns_sentinel_not_nan(self):
        h = Histogram("lat")
        v = h.quantile(0.5)
        assert v == 0.0 and not math.isnan(v)

    def test_single_sample(self):
        h = Histogram("lat")
        h.observe(3.25)
        assert h.quantile(0.0) == 3.25
        assert h.quantile(0.5) == 3.25
        assert h.quantile(1.0) == 3.25

    def test_out_of_range_raises(self):
        h = Histogram("lat")
        h.observe(1.0)
        for bad in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                h.quantile(bad)

    def test_nearest_rank(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            h.observe(v)
        assert h.quantile(0.5) == 3.0
        assert h.quantile(0.95) == 5.0
