"""Lifetime-histogram quantile hardening."""

import math

import pytest

from repro.obs.metrics import Histogram


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
