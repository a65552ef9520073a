"""Declarative SLOs: burn rates, windows, and alert transitions."""

import random
import sys
import threading
from collections import namedtuple

import pytest

from repro.obs import slo
from repro.obs.events import EventLog, ListSink
from repro.obs.slo import DEFAULT_SLOS, SLOSpec, SLOTracker


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class ListSinkLog:
    """Minimal stand-in: records evaluate()'s transition emits."""

    enabled = True

    def __init__(self) -> None:
        self.sink = ListSink()
        self._log = EventLog(level="debug", sinks=[self.sink])

    def emit(self, name, level="info", **fields):
        self._log.emit(name, level=level, **fields)

    @property
    def names(self):
        return [e.name for e in self.sink.events]


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------
class TestSLOSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="uptime")

    def test_objective_bounds(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="availability", objective=0.0)
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="availability", objective=1.5)

    def test_latency_needs_threshold(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="latency", objective=0.9)

    def test_defaults_cover_the_four_promises(self):
        kinds = {s.kind for s in DEFAULT_SLOS}
        assert kinds == {"availability", "latency", "zero", "shed"}


# ---------------------------------------------------------------------------
# Burn-rate arithmetic
# ---------------------------------------------------------------------------
class TestBurn:
    def test_idle_window_burns_nothing(self):
        spec = SLOSpec(name="avail", kind="availability", objective=0.99)
        t = SLOTracker((spec,), window_s=60.0)
        (st,) = t.evaluate()
        assert st.sli == 1.0 and st.burn_rate == 0.0 and not st.alerting

    def test_availability_burn_formula(self):
        spec = SLOSpec(name="avail", kind="availability", objective=0.99)
        t = SLOTracker((spec,), window_s=60.0)
        for ok in [True] * 95 + [False] * 5:
            t.record(ok=ok, latency_s=0.01)
        (st,) = t.evaluate()
        assert st.sli == pytest.approx(0.95)
        assert st.burn_rate == pytest.approx(0.05 / 0.01)  # 5x the budget
        assert st.alerting

    def test_latency_slo_counts_fast_queries(self):
        spec = SLOSpec(
            name="lat", kind="latency", objective=0.5, threshold_s=1.0
        )
        t = SLOTracker((spec,), window_s=60.0)
        t.record(ok=True, latency_s=0.2)
        t.record(ok=True, latency_s=5.0)
        (st,) = t.evaluate()
        assert st.sli == pytest.approx(0.5)
        assert st.burn_rate == pytest.approx(1.0)
        assert not st.alerting  # burn must *exceed* alert_burn

    def test_zero_kind_saturates_on_any_escape(self):
        spec = SLOSpec(name="esc", kind="zero", objective=1.0)
        t = SLOTracker((spec,), window_s=60.0)
        t.record(ok=True, latency_s=0.1)
        (st,) = t.evaluate()
        assert st.burn_rate == 0.0
        t.record(ok=True, latency_s=0.1, escaped=1)
        (st,) = t.evaluate()
        assert st.sli == 0.0
        assert st.burn_rate == float("inf")
        assert st.alerting


# ---------------------------------------------------------------------------
# Alert transitions (events fire on edges, not levels)
# ---------------------------------------------------------------------------
class TestTransitions:
    def test_burn_and_recover_emit_once_each(self):
        spec = SLOSpec(name="avail", kind="availability", objective=0.99)
        clk = FakeClock(1000.0)
        log = ListSinkLog()
        t = SLOTracker((spec,), window_s=60.0, events=log, clock=clk)
        for _ in range(10):
            t.record(ok=False, latency_s=0.1)
        t.evaluate()
        t.evaluate()  # still burning: no duplicate event
        assert log.names == ["slo.burn"]
        clk.t += 120.0  # the window rolls clean
        t.evaluate()
        t.evaluate()
        assert log.names == ["slo.burn", "slo.recovered"]

    def test_burn_event_carries_identity(self):
        spec = SLOSpec(name="avail", kind="availability", objective=0.99)
        log = ListSinkLog()
        t = SLOTracker((spec,), window_s=60.0, events=log)
        t.record(ok=False, latency_s=0.1)
        t.evaluate()
        (ev,) = log.sink.events
        assert ev.level == "error"
        assert ev.fields["slo"] == "avail"
        assert "burn_rate" in ev.fields


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------
class TestWindowing:
    def test_failures_age_out(self):
        spec = SLOSpec(name="avail", kind="availability", objective=0.99)
        clk = FakeClock(0.0)
        t = SLOTracker((spec,), window_s=60.0, clock=clk)
        t.record(ok=False, latency_s=0.1)
        clk.t = 30.0
        (st,) = t.evaluate()
        assert st.alerting
        clk.t = 120.0
        (st,) = t.evaluate()
        assert st.sli == 1.0 and not st.alerting


# ---------------------------------------------------------------------------
# The window of finished queries: latency views over the same records
# ---------------------------------------------------------------------------
class TestQueryWindow:
    def test_quantiles_over_live_window_only(self):
        clk = FakeClock(0.0)
        t = SLOTracker(window_s=60, clock=clk)
        t.record(ok=True, latency_s=100.0)  # will expire
        clk.t = 70.0
        for v in (1.0, 2.0, 3.0, 4.0):
            t.record(ok=True, latency_s=v)
        assert t.count() == 4
        assert t.quantile(0.5) == 2.0
        assert t.quantile(1.0) == 4.0
        assert t.summary()["mean"] == pytest.approx(2.5)

    def test_empty_window_sentinel(self):
        t = SLOTracker(window_s=60, clock=FakeClock(0.0))
        assert t.count() == 0
        assert t.quantile(0.5) == 0.0
        assert t.summary() == {
            "count": 0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "max": 0.0,
        }  # the empty shape is part of the /statusz API

    def test_single_observation_answers_every_quantile(self):
        t = SLOTracker(window_s=60, clock=FakeClock(5.0))
        t.record(ok=True, latency_s=7.0)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert t.quantile(q) == 7.0

    def test_out_of_range_quantile_raises(self):
        t = SLOTracker(window_s=60, clock=FakeClock(0.0))
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                t.quantile(bad)

    def test_max_records_sheds_oldest(self, monkeypatch):
        monkeypatch.setattr(slo, "MAX_RECORDS", 10)
        clk = FakeClock(0.0)
        t = SLOTracker(window_s=1000.0, clock=clk)
        for i in range(25):
            clk.t = float(i)
            t.record(ok=True, latency_s=float(i))
        assert t.count() == 10
        # The newest observations survive the shed.
        assert t.quantile(0.0) == 15.0
        assert t.quantile(1.0) == 24.0

    def test_max_exemplar_names_the_slowest_tagged_query(self):
        t = SLOTracker(window_s=60.0)
        t.record(ok=True, latency_s=0.1, query_id="fast")
        t.record(ok=True, latency_s=2.5, query_id="slow")
        t.record(ok=True, latency_s=9.0)  # untagged
        assert t.summary()["max_exemplar"] == "slow"

    def test_concurrent_records_are_all_kept_in_time_order(self):
        t = SLOTracker(window_s=3600.0)
        threads, per_thread = 8, 500
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [
                        t.record(ok=True, latency_s=0.01)
                        for _ in range(per_thread)
                    ]
                )
                for _ in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30.0)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert t.count() == threads * per_thread
        stamps = [r.ts for r in t._records]
        assert stamps == sorted(stamps)


# ---------------------------------------------------------------------------
# Running tallies against a full scan of the window
# ---------------------------------------------------------------------------
Rec = namedtuple("Rec", "ts latency_s ok shed escaped query_id")


def spends_budget(spec, r):
    if spec.kind == "availability":
        return not r.ok
    if spec.kind == "latency":
        return r.latency_s > spec.threshold_s
    if spec.kind == "shed":
        return r.shed
    return r.escaped > 0  # zero


def full_scan_sli(spec, live):
    """The full-scan evaluation the running tallies replace: the oracle."""
    bad = [r for r in live if spends_budget(spec, r)]
    exemplar = next((r.query_id for r in reversed(bad) if r.query_id), None)
    if spec.kind == "zero":
        escaped = float(sum(r.escaped for r in bad))
        return (0.0 if bad else 1.0), (0.0 if bad else 1.0), escaped, exemplar
    total = float(len(live))
    if total == 0:
        return 1.0, 0.0, 0.0, None
    good = total - len(bad)
    return good / total, good, total, exemplar


def full_scan_status(spec, live) -> dict:
    sli, good, total, exemplar = full_scan_sli(spec, live)
    budget = 1.0 - spec.objective
    if budget <= 0.0:
        burn = 0.0 if sli >= 1.0 else float("inf")
    else:
        burn = (1.0 - sli) / budget
    alerting = burn > spec.alert_burn
    return {
        "name": spec.name,
        "kind": spec.kind,
        "objective": spec.objective,
        "sli": sli,
        "good": good,
        "total": total,
        "burn_rate": burn,
        "alerting": alerting,
        "exemplar": exemplar if alerting else None,
    }


class TestIncrementalMatchesFullScan:
    SPECS = (
        *DEFAULT_SLOS,
        SLOSpec(name="fast", kind="latency", objective=0.5, threshold_s=0.05),
        SLOSpec(name="lenient", kind="availability", objective=0.5, alert_burn=1.5),
    )

    @pytest.mark.parametrize("cap", [None, 7])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams(self, seed, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(slo, "MAX_RECORDS", cap)
        cap = slo.MAX_RECORDS
        rng = random.Random(seed)
        window_s = 10.0
        clk = FakeClock(0.0)
        log = ListSinkLog()
        t = SLOTracker(self.SPECS, window_s=window_s, events=log, clock=clk)
        stream: list[Rec] = []
        alerting = {s.name: False for s in self.SPECS}
        expected_events = []
        for step in range(400):
            # Mostly small steps; now and then a jump past the window.
            clk.t += rng.choice((0.0, 0.1, 0.5, 2.0, 2.0, 11.0))
            if rng.random() < 0.7:
                r = Rec(
                    clk.t,
                    rng.expovariate(20.0),
                    rng.random() < 0.8,
                    rng.random() < 0.1,
                    rng.choice((0, 0, 0, 0, 0, 0, 1, 3)),
                    rng.choice((None, "", f"q{step}", f"q{step}")),
                )
                stream.append(r)
                t.record(
                    ok=r.ok,
                    latency_s=r.latency_s,
                    escaped=r.escaped,
                    shed=r.shed,
                    query_id=r.query_id,
                )
                continue
            live = [r for r in stream[-cap:] if r.ts > clk.t - window_s]
            want = [full_scan_status(spec, live) for spec in self.SPECS]
            assert [s.to_dict() for s in t.evaluate()] == want
            assert t.count() == len(live)
            for row in want:
                if row["alerting"] != alerting[row["name"]]:
                    alerting[row["name"]] = row["alerting"]
                    name = "slo.burn" if row["alerting"] else "slo.recovered"
                    expected_events.append((name, row["name"]))
        got = [(e.name, e.fields["slo"]) for e in log.sink.events]
        assert got == expected_events
        assert {"slo.burn", "slo.recovered"} <= {name for name, _ in got}
