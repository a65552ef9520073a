"""Unit tests for the serving-policy primitives (repro.resilience.policy).

Everything here runs on fake clocks and injected seeds: the point is
that admission, breaker transitions, and quarantine decisions
are *deterministic* — same seed and same failure sequence means the
same decisions, regardless of wall-clock or thread interleaving.
"""

from __future__ import annotations

import pytest

from repro.obs.events import EventLog, ListSink
from repro.obs.metrics import MetricsRegistry
from repro.resilience.policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdmissionController,
    CircuitBreaker,
    PolicyConfig,
    Quarantine,
    ResiliencePolicy,
    TokenBucket,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ----------------------------------------------------------------------
# PolicyConfig
# ----------------------------------------------------------------------
class TestPolicyConfig:
    def test_defaults_are_fully_off(self):
        cfg = PolicyConfig()
        assert not cfg.enabled
        assert not (cfg.admission_on or cfg.breaker_on)
        assert not (cfg.quarantine_on or cfg.degradation_on)

    @pytest.mark.parametrize(
        "kw",
        [
            {"admission_rate": 10.0},
            {"breaker_threshold": 2},
            {"quarantine_after": 3},
            {"serve_stale": True},
            {"degrade_serial": True},
        ],
    )
    def test_any_knob_enables(self, kw):
        assert PolicyConfig(**kw).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(admission_rate=-1)
        with pytest.raises(ValueError):
            PolicyConfig(admission_burst=0)
        with pytest.raises(ValueError):
            PolicyConfig(breaker_threshold=-1)
        with pytest.raises(ValueError):
            PolicyConfig(quarantine_after=-1)


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refills_at_rate_up_to_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4, clock=clock)
        for _ in range(4):
            assert bucket.try_take()
        clock.advance(1.0)  # +2 tokens
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()
        clock.advance(100.0)  # clamps at burst
        assert bucket.level() == pytest.approx(4.0)

    def test_reserve_blocks_low_priority_first(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert not bucket.try_take(reserve=2.0)  # would dip below reserve
        assert bucket.try_take(reserve=1.0)  # 2 -> 1, stays at reserve
        assert not bucket.try_take(reserve=1.0)
        assert bucket.try_take(reserve=0.0)  # high priority drains fully


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def cfg(self, **kw):
        kw.setdefault("admission_rate", 0.001)  # effectively no refill
        kw.setdefault("admission_burst", 4)
        return PolicyConfig(**kw)

    def test_depth_gate_sheds_lowest_priority_first(self):
        ctl = AdmissionController(self.cfg(), 10, clock=FakeClock())
        # depth 5 = 0.5 * max: LOW sheds, NORMAL and HIGH pass.
        assert not ctl.decide(priority=0, queue_depth=5).admitted
        assert ctl.decide(priority=0, queue_depth=5).reason == "queue-depth"
        assert ctl.decide(priority=1, queue_depth=5).admitted
        assert ctl.decide(priority=2, queue_depth=5).admitted
        # depth 9 = 0.9 * max: NORMAL sheds too, HIGH still passes.
        assert not ctl.decide(priority=1, queue_depth=9).admitted
        assert ctl.decide(priority=2, queue_depth=9).admitted
        # depth 10 = max: everyone sheds.
        assert not ctl.decide(priority=2, queue_depth=10).admitted

    def test_bucket_reserve_orders_priorities(self):
        # burst 4, no refill: LOW must leave 2 tokens, NORMAL 1, HIGH 0.
        ctl = AdmissionController(self.cfg(), 100, clock=FakeClock())
        assert ctl.decide(priority=0, queue_depth=0).admitted  # 4 -> 3
        assert ctl.decide(priority=0, queue_depth=0).admitted  # 3 -> 2
        low = ctl.decide(priority=0, queue_depth=0)
        assert not low.admitted and low.reason == "token-bucket"
        assert ctl.decide(priority=1, queue_depth=0).admitted  # 2 -> 1
        assert not ctl.decide(priority=1, queue_depth=0).admitted
        assert ctl.decide(priority=2, queue_depth=0).admitted  # 1 -> 0
        assert not ctl.decide(priority=2, queue_depth=0).admitted

    def test_priorities_clamp(self):
        ctl = AdmissionController(self.cfg(), 10, clock=FakeClock())
        assert not ctl.decide(priority=-5, queue_depth=5).admitted  # LOW
        assert ctl.decide(priority=99, queue_depth=9).admitted  # HIGH


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def cfg(self, **kw):
        kw.setdefault("breaker_threshold", 3)
        kw.setdefault("breaker_cooldown_s", 1.0)
        return PolicyConfig(**kw)

    def make(self, clock, **kw):
        sink = ListSink()
        log = EventLog(level="debug", sinks=[sink])
        b = CircuitBreaker(self.cfg(**kw), "g1", clock=clock, events=log)
        return b, sink

    def test_full_cycle_and_transition_log(self):
        clock = FakeClock()
        b, sink = self.make(clock)
        for _ in range(2):
            b.record(ok=False)
        assert b.state == BREAKER_CLOSED
        b.record(ok=False)  # third consecutive failure
        assert b.state == BREAKER_OPEN
        assert not b.allow()  # cooling
        clock.advance(2.0)  # past cooldown (1.0 * jitter<=1.1)
        assert b.allow()  # the half-open probe
        assert not b.allow()  # only one probe at a time
        b.record(ok=True)
        assert b.state == BREAKER_CLOSED
        assert [(f, t, w) for f, t, w in b.transitions] == [
            (BREAKER_CLOSED, BREAKER_OPEN, "threshold"),
            (BREAKER_OPEN, BREAKER_HALF_OPEN, "cooldown-elapsed"),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED, "probe-succeeded"),
        ]
        names = [e.name for e in sink.events]
        assert names == ["breaker.open", "breaker.half_open", "breaker.closed"]

    def test_probe_failure_reopens_with_doubled_cooldown(self):
        clock = FakeClock()
        b, _ = self.make(clock)
        for _ in range(3):
            b.record(ok=False)
        first_open = b.snapshot()["open_for_s"]
        clock.advance(2.0)
        assert b.allow()
        b.record(ok=False)  # probe fails
        assert b.state == BREAKER_OPEN
        assert b.opens == 2
        # Second cooldown is 2x the base (plus <=10% jitter).
        assert b.snapshot()["open_for_s"] > first_open

    def test_success_resets_consecutive_failures(self):
        b, _ = self.make(FakeClock())
        b.record(ok=False)
        b.record(ok=False)
        b.record(ok=True)
        b.record(ok=False)
        assert b.state == BREAKER_CLOSED

    def test_rejecting_peek_consumes_nothing(self):
        clock = FakeClock()
        b, _ = self.make(clock)
        assert not b.rejecting()  # closed
        for _ in range(3):
            b.record(ok=False)
        assert b.rejecting()
        clock.advance(2.0)
        # Cooldown elapsed: the peek stops rejecting but must NOT move
        # the automaton or claim the probe slot.
        assert not b.rejecting()
        assert b.state == BREAKER_OPEN
        assert b.allow()  # the probe slot is still available

    def test_transitions_replay_for_same_seed(self):
        def drive(seed):
            clock = FakeClock()
            b = CircuitBreaker(self.cfg(seed=seed), "g1", clock=clock)
            for _ in range(3):
                b.record(ok=False)
            until = b._open_until
            clock.advance(5.0)
            b.allow()
            b.record(ok=True)
            return until, list(b.transitions)

        assert drive(3) == drive(3)
        assert drive(3)[0] != drive(4)[0]  # jitter is seed-dependent


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_edge_triggered_after_threshold(self):
        quar = Quarantine(PolicyConfig(quarantine_after=2))
        assert not quar.record("spec", ok=False, error_kind="fault")
        assert quar.check("spec") is None
        assert quar.record("spec", ok=False, error_kind="fault")  # the edge
        assert not quar.record("spec", ok=False, error_kind="fault")  # held
        entry = quar.check("spec")
        assert entry is not None and entry["failures"] == 2
        assert entry["last_error_kind"] == "fault"

    def test_success_and_release_clear(self):
        quar = Quarantine(PolicyConfig(quarantine_after=1))
        quar.record("a", ok=False, error_kind="timeout")
        quar.record("b", ok=False, error_kind="fault")
        quar.record("a", ok=True)
        assert quar.check("a") is None
        quar.release("b")
        assert quar.check("b") is None
        assert quar.snapshot() == {}


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class TestResiliencePolicy:
    def make(self, **kw):
        clock = FakeClock()
        reg = MetricsRegistry()
        pol = ResiliencePolicy(
            PolicyConfig(**kw),
            max_queue_depth=10,
            registry=reg,
            clock=clock,
        )
        return pol, reg, clock

    def test_admit_counts_and_shed_rate(self):
        pol, reg, _ = self.make(admission_rate=0.001, admission_burst=2)
        assert pol.admit(priority=2, queue_depth=0).admitted
        assert pol.admit(priority=2, queue_depth=0).admitted
        assert not pol.admit(priority=2, queue_depth=0).admitted
        assert reg.counter("resilience.policy.admitted").value == 2
        assert reg.counter("resilience.policy.shed").value == 1

    def test_breaker_fast_path_never_creates_breakers(self):
        pol, _, _ = self.make(breaker_threshold=2)
        assert not pol.breaker_rejects_fast("unseen-graph")
        assert pol.breaker_snapshots() == []
        pol.breaker_record("g", ok=False)
        pol.breaker_record("g", ok=False)
        assert not pol.breaker_allows("g")
        assert pol.breaker_rejects_fast("g")
        assert pol.breakers_open() == 1

    def test_allow_fallback_uses_lowest_priority_reserve(self):
        pol, _, _ = self.make(admission_rate=0.001, admission_burst=4)
        assert pol.allow_fallback()  # 4 -> 3 (reserve 2)
        assert pol.allow_fallback()  # 3 -> 2
        assert not pol.allow_fallback()  # would dip below the reserve
        off, _, _ = self.make(breaker_threshold=1)  # admission off
        assert off.allow_fallback()

    def test_status_shape(self):
        pol, _, _ = self.make(admission_rate=5.0, breaker_threshold=1)
        pol.admit(priority=1, queue_depth=0)
        status = pol.status()
        assert set(status) == {"config", "breakers", "quarantined"}
