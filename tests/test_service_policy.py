"""Service-level tests for overload-safe serving (ServiceConfig.policy).

Covers the integration surface: typed shed/degraded/quarantined/
cancelled outcomes and their exit codes, priority-ordered shedding,
stale degraded serving, breaker open/recover through the service,
retry recovery, the dedup-leak regression, ``close(wait=False)``
semantics, concurrent recovery-ladder chaos queries, and the
chaos-under-load campaign.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import EXIT_OVERLOADED, DeadlineExceeded, DeviceFault
from repro.resilience import run_service_campaign
from repro.resilience.policy import PolicyConfig
from repro.service import MSTService, Query, ServiceConfig, execute_query
from repro.service.engine import Ticket
from repro.service.outcome import SERVED_FALLBACK, SERVED_STALE, QueryOutcome

SCALE = 0.06


def q(input="internet", **kw):
    kw.setdefault("scale", SCALE)
    return Query(input=input, **kw)


def poison(**kw):
    """A deterministically failing spec: unguarded kernel-fail injection."""
    kw.setdefault("fault_seed", 1234)
    return q(n_faults=1, fault_kinds=("kernel-fail",), check_cadence=0, **kw)


def service(policy=None, **kw):
    kw.setdefault("workers", 2)
    return MSTService(ServiceConfig(policy=policy, **kw))


def no_sleep(svc):
    """Retry backoffs resolve instantly (the schedule is still drawn)."""
    assert svc.policy is not None
    svc.policy.sleep = lambda s: None
    return svc


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_all_off_policy_is_never_constructed(self):
        svc = service(policy=PolicyConfig())
        assert svc.policy is None
        svc.close()

    def test_slowdown_validated(self):
        with pytest.raises(ValueError, match="slowdown"):
            ServiceConfig(slowdown=0.5)

    def test_priority_field_validated(self):
        from repro.service import QueryError

        with pytest.raises(QueryError, match="priority"):
            q(priority="high")

    def test_knobs_off_is_bit_identical_and_emits_no_policy_metrics(self):
        with service() as plain, service(policy=PolicyConfig()) as off:
            a = plain.submit(q(id="a")).outcome()
            b = off.submit(q(id="a")).outcome()
            assert a.ok and b.ok
            assert a.identity() == b.identity()
            assert not any(
                k.startswith("resilience.policy") for k in off.metrics()
            )
            assert off.status()["policy"] == {"enabled": False}


# ----------------------------------------------------------------------
# Admission / shedding
# ----------------------------------------------------------------------
class TestShedding:
    def test_shed_outcome_is_typed_with_overload_exit_code(self):
        pol = PolicyConfig(admission_rate=0.001, admission_burst=1)
        with service(policy=pol) as svc:
            first = svc.submit(q(id="in", priority=2)).outcome()
            assert first.ok
            out = svc.submit(
                q(id="out", priority=2, config={"filtering": False})
            ).outcome()
            assert out.status == "shed"
            assert out.error_kind == "overloaded"
            assert out.exit_code == EXIT_OVERLOADED
            assert out.policy["reason"] == "token-bucket"
            assert not out.served

    def test_lowest_priority_sheds_first(self):
        # burst 2, no refill: LOW needs 1 token spare, HIGH drains fully.
        pol = PolicyConfig(admission_rate=0.001, admission_burst=2)
        with service(policy=pol) as svc:
            assert svc.submit(q(id="l1", priority=0)).outcome().ok
            low = svc.submit(
                q(id="l2", priority=0, config={"filtering": False})
            ).outcome()
            assert low.status == "shed"
            high = svc.submit(
                q(id="h1", priority=2, config={"filtering": False})
            ).outcome()
            assert high.ok

    def test_shed_rate_feeds_metrics_and_slo(self):
        pol = PolicyConfig(admission_rate=0.001, admission_burst=1)
        with service(policy=pol) as svc:
            svc.submit(q(id="a", priority=2)).outcome()
            svc.submit(
                q(id="b", priority=2, config={"filtering": False})
            ).outcome()
            m = svc.metrics()
            assert m["resilience.policy.shed_rate"] == pytest.approx(0.5)
            shed_slo = next(
                s for s in svc.slo_statuses() if s.spec.name == "shed-rate"
            )
            assert shed_slo.sli == pytest.approx(0.5)

    def test_cache_hits_bypass_admission(self):
        pol = PolicyConfig(admission_rate=0.001, admission_burst=1)
        with service(policy=pol) as svc:
            assert svc.submit(q(id="warm", priority=2)).outcome().ok
            # Bucket is empty, but the identical query answers from cache.
            again = svc.submit(q(id="warm2", priority=0)).outcome()
            assert again.ok and again.cache_hit


# ----------------------------------------------------------------------
# Stale degraded serving
# ----------------------------------------------------------------------
class TestStaleServing:
    def test_shed_query_degrades_to_stale_cache(self):
        pol = PolicyConfig(
            admission_rate=0.001,
            admission_burst=1,
            serve_stale=True,
            fresh_ttl_s=1e-6,  # everything cached is immediately stale
        )
        with service(policy=pol) as svc:
            fresh = svc.submit(q(id="seed", priority=2)).outcome()
            assert fresh.ok
            time.sleep(0.01)
            out = svc.submit(q(id="later", priority=2)).outcome()
            assert out.status == "degraded"
            assert out.served_by == SERVED_STALE
            assert out.served and not out.ok
            assert out.exit_code == 0
            assert out.policy["degraded"] == "stale-cache"
            assert out.policy["staleness_s"] > 0
            assert out.identity() == fresh.identity()

    def test_stale_entries_do_not_serve_as_normal_hits(self):
        pol = PolicyConfig(serve_stale=True, fresh_ttl_s=1e-6)
        with service(policy=pol) as svc:
            svc.submit(q(id="a")).outcome()
            time.sleep(0.01)
            executed = svc.registry.counter("service.executed").value
            out = svc.submit(q(id="b")).outcome()  # admitted: re-executes
            assert out.ok and not out.cache_hit
            assert svc.registry.counter("service.executed").value > executed

    def test_too_old_entries_are_not_served_stale(self, monkeypatch):
        import repro.service.engine as engine

        monkeypatch.setattr(engine, "STALE_MAX_AGE_S", 1e-6)
        pol = PolicyConfig(
            admission_rate=0.001,
            admission_burst=1,
            serve_stale=True,
            fresh_ttl_s=1e-6,
        )
        with service(policy=pol) as svc:
            svc.submit(q(id="seed", priority=2)).outcome()
            time.sleep(0.01)
            out = svc.submit(q(id="later", priority=2)).outcome()
            assert out.status == "shed"  # beyond STALE_MAX_AGE_S: typed shed


# ----------------------------------------------------------------------
# Retries
# ----------------------------------------------------------------------
class TestRetries:
    def test_transient_failure_retries_and_recovers(self, monkeypatch):
        import repro.service.engine as engine

        real = engine.execute_query
        failures = {"left": 2}

        def flaky(query, graph=None, **kw):
            if query.id == "flaky" and failures["left"] > 0:
                failures["left"] -= 1
                return QueryOutcome.failure(query, DeviceFault("transient"))
            return real(query, graph, **kw)

        monkeypatch.setattr(engine, "execute_query", flaky)
        pol = PolicyConfig(max_retries=3, backoff_base_s=1e-4, backoff_cap_s=1e-3)
        with no_sleep(service(policy=pol)) as svc:
            out = svc.submit(q(id="flaky")).outcome()
            assert out.ok
            assert out.policy["retries"] == 2
            assert out.policy["backoff_s"] > 0
            # The recovered result is cached under the original spec.
            again = svc.submit(q(id="flaky-again")).outcome()
            assert again.ok and again.cache_hit

    def test_budget_exhaustion_returns_the_error(self):
        pol = PolicyConfig(max_retries=2, backoff_base_s=1e-4, backoff_cap_s=1e-3)
        with no_sleep(service(policy=pol)) as svc:
            out = svc.submit(poison(id="doomed")).outcome()
            assert out.status == "error"
            assert out.error_kind == "fault"
            assert out.policy["retries"] == 2

    def test_nontransient_failures_never_retry(self):
        pol = PolicyConfig(max_retries=3)
        with no_sleep(service(policy=pol)) as svc:
            out = svc.submit(q(id="bad", input="no-such-input")).outcome()
            assert out.status == "error"
            assert out.error_kind == "input"
            assert "retries" not in out.policy

    def test_retry_schedule_is_deterministic_per_seed(self, monkeypatch):
        import repro.service.engine as engine

        real = engine.execute_query

        def run(seed):
            failures = {"left": 2}

            def flaky(query, graph=None, **kw):
                if query.id.startswith("d") and failures["left"] > 0:
                    failures["left"] -= 1
                    return QueryOutcome.failure(query, DeviceFault("boom"))
                return real(query, graph, **kw)

            monkeypatch.setattr(engine, "execute_query", flaky)
            delays = []
            pol = PolicyConfig(max_retries=3, seed=seed)
            with service(policy=pol) as svc:
                svc.policy.sleep = delays.append
                assert svc.submit(q(id="d1")).outcome().ok
            return delays

        assert run(5) == run(5)
        assert run(5) != run(6)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_solver_deadline_raises_typed_error(self):
        from repro.core.eclmst import ecl_mst
        from repro.generators import suite

        g = suite.build("internet", scale=SCALE)
        with pytest.raises(DeadlineExceeded):
            ecl_mst(g, deadline=time.perf_counter() - 1.0)

    def test_expired_deadline_becomes_timeout_outcome(self):
        out = execute_query(
            q(id="late"), deadline=time.perf_counter() - 1.0
        )
        assert out.status == "error" or out.error_kind == "timeout"
        assert out.error_kind == "timeout"


# ----------------------------------------------------------------------
# Circuit breaker through the service
# ----------------------------------------------------------------------
class TestBreaker:
    POL = dict(breaker_threshold=2, breaker_cooldown_s=0.05)

    def test_opens_fails_fast_then_recovers(self):
        pol = PolicyConfig(**self.POL)
        with service(policy=pol) as svc:
            for i in range(2):
                out = svc.submit(poison(id=f"p{i}", fault_seed=50 + i)).outcome()
                assert out.status == "error"
            snaps = svc.policy.breaker_snapshots()
            assert len(snaps) == 1 and snaps[0]["state"] == "open"
            digest = snaps[0]["graph"]
            # Healthy traffic on the broken graph is shed, fast.
            shed = svc.submit(q(id="blocked")).outcome()
            assert shed.status == "shed"
            assert shed.policy["reason"] == "breaker-open"
            assert shed.exit_code == EXIT_OVERLOADED
            # After the cooldown a probe executes and closes it.
            deadline = time.time() + 5.0
            closed = False
            k = 0
            while time.time() < deadline and not closed:
                time.sleep(0.03)
                out = svc.submit(q(id=f"probe{k}")).outcome()
                k += 1
                closed = (
                    out.ok
                    and svc.policy.breaker(digest).state == "closed"
                )
            assert closed
            transitions = svc.policy.breaker(digest).transitions
            assert transitions[0][1] == "open"
            assert transitions[-1][1] == "closed"
            assert svc.status()["policy"]["breakers"][0]["state"] == "closed"

    def test_transitions_replay_for_same_seed_and_plan(self):
        def drive(seed):
            pol = PolicyConfig(seed=seed, **self.POL)
            with service(policy=pol, workers=1) as svc:
                for i in range(3):
                    svc.submit(poison(id=f"p{i}", fault_seed=50 + i)).outcome()
                [b] = svc.policy.breaker_snapshots()
                return list(svc.policy.breaker(b["graph"]).transitions)

        assert drive(1) == drive(1)

    def test_submit_fast_fail_uses_learned_fingerprint(self):
        pol = PolicyConfig(**self.POL)
        with service(policy=pol) as svc:
            warm = svc.submit(q(id="warm")).outcome()  # learns spec->rkey
            assert warm.ok
            for i in range(2):
                svc.submit(poison(id=f"p{i}", fault_seed=60 + i)).outcome()
            # A *fresh-spec* healthy query can't fast-fail at submit (no
            # learned fingerprint) — but the cached one must still serve.
            again = svc.submit(q(id="warm2")).outcome()
            assert again.ok and again.cache_hit


# ----------------------------------------------------------------------
# Quarantine through the service
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_poison_spec_is_quarantined_and_refused(self):
        pol = PolicyConfig(quarantine_after=2)
        with service(policy=pol) as svc:
            for i in range(2):
                out = svc.submit(poison(id=f"try{i}")).outcome()
                assert out.status == "error"
            refused = svc.submit(poison(id="refused")).outcome()
            assert refused.status == "quarantined"
            assert refused.exit_code == EXIT_OVERLOADED
            assert refused.policy["reason"] == "quarantine"
            assert refused.policy["failures"] == 2
            # A different spec on the same graph still runs.
            ok = svc.submit(q(id="healthy")).outcome()
            assert ok.ok
            assert svc.status()["policy"]["quarantined"]


# ----------------------------------------------------------------------
# Degraded serial fallback
# ----------------------------------------------------------------------
class TestSerialFallback:
    def test_exhausted_retries_fall_back_to_serial(self):
        pol = PolicyConfig(degrade_serial=True)
        with service(policy=pol) as svc:
            clean = svc.submit(q(id="ref", priority=2)).outcome()
            out = svc.submit(poison(id="broken")).outcome()
            assert out.status == "degraded"
            assert out.served_by == SERVED_FALLBACK
            assert out.policy["degraded"] == "serial-fallback"
            assert out.code == "ECL-MST"  # the client's code, not the
            assert "kruskal" in out.algorithm  # fallback's
            assert out.total_weight == clean.total_weight
            assert out.num_mst_edges == clean.num_mst_edges
            assert out.result_key == ""  # never cached as the real answer


# ----------------------------------------------------------------------
# Satellite regressions: dedup leak, close(wait=False)
# ----------------------------------------------------------------------
class TestDedupLeak:
    def test_timed_out_query_releases_its_dedup_key(self, monkeypatch):
        release = threading.Event()
        stalled = {"first": True}
        real = MSTService._resolve_graph

        def slow_resolve(self, query):
            if stalled.pop("first", False):
                release.wait(10.0)
            return real(self, query)

        monkeypatch.setattr(MSTService, "_resolve_graph", slow_resolve)
        svc = service(workers=2)
        try:
            spec = q(id="one", timeout_s=0.15)
            out1 = svc.submit(spec).outcome()
            assert out1.status == "timeout"
            # Regression: the stalled execution must not keep owning the
            # dedup key — an identical resubmission gets its own run.
            assert spec.spec_key() not in svc._inflight
            t2 = svc.submit(q(id="two", timeout_s=30.0))
            assert t2.primary  # not coalesced onto the dead ticket
            release.set()
            out2 = t2.outcome()
            assert out2.ok
        finally:
            release.set()
            svc.close()


class TestClose:
    def test_close_nowait_resolves_queued_tickets_as_cancelled(self):
        gate = threading.Event()
        svc = service(workers=1)
        real = MSTService._resolve_graph

        def blocking_resolve(self_, query):
            if query.id == "occupier":
                gate.wait(10.0)
            return real(self_, query)

        svc._resolve_graph = blocking_resolve.__get__(svc)
        try:
            occupier = svc.submit(q(id="occupier", timeout_s=30.0))
            queued = svc.submit(
                q(id="queued", timeout_s=30.0, config={"filtering": False})
            )
            svc.close(wait=False)
            out = queued.outcome()
            assert out.status == "cancelled"
            assert out.error_kind == "cancelled"
            assert out.exit_code == 1
            late = svc.submit(q(id="late")).outcome()
            assert late.status == "cancelled"
            assert "shut down" in late.error
        finally:
            gate.set()
            occupier.outcome()  # drain the worker

    def test_cancelled_outcomes_count_in_metrics(self):
        svc = service(workers=1)
        svc.close(wait=False)
        out = svc.submit(q(id="after")).outcome()
        assert out.status == "cancelled"


# ----------------------------------------------------------------------
# Recovery ladder under concurrent service load (satellite c)
# ----------------------------------------------------------------------
class TestConcurrentChaos:
    def test_parallel_chaos_queries_all_recover(self):
        clean = execute_query(q(id="ref"))
        assert clean.ok
        pol = PolicyConfig(max_retries=1, backoff_base_s=1e-4, backoff_cap_s=1e-3)
        with no_sleep(service(policy=pol, workers=3)) as svc:
            queries = [
                q(
                    id=f"chaos-{i}",
                    n_faults=1,
                    check_cadence=2,
                    fault_seed=9000 + i,
                    timeout_s=60.0,
                )
                for i in range(6)
            ]
            outcomes = svc.run_batch(queries)
            assert len(outcomes) == 6
            for out in outcomes:
                assert out.ok, out.error
                assert out.total_weight == clean.total_weight
                assert out.num_mst_edges == clean.num_mst_edges
                assert int(out.resilience.get("escaped", 0)) == 0
            # Pool and caches healthy afterwards: nothing leaked.
            assert svc._inflight == {}
            assert svc._depth == 0
            follow_up = svc.submit(q(id="after")).outcome()
            assert follow_up.ok


# ----------------------------------------------------------------------
# The chaos-under-load campaign
# ----------------------------------------------------------------------
class TestServiceCampaign:
    def test_campaign_passes_and_covers_the_drills(self):
        report = run_service_campaign(
            "internet", scale=SCALE, n_queries=6, workers=2
        )
        assert report.passed
        assert report.escaped == 0
        assert report.hung == 0
        assert report.untyped == 0
        assert report.breaker_opened and report.breaker_recovered
        assert report.statuses.get("quarantined", 0) >= 1
        assert sum(report.statuses.values()) == report.queries
        d = report.to_dict()
        assert d["passed"] is True
        assert "PASS" in report.render()


# ----------------------------------------------------------------------
# Outcome serialization for the new statuses
# ----------------------------------------------------------------------
class TestOutcomeWire:
    def test_shed_line_round_trips(self):
        from repro.errors import Overloaded

        out = QueryOutcome.failure(
            q(id="s"), Overloaded("shed", reason="token-bucket"), status="shed"
        )
        out.policy = {"reason": "token-bucket", "priority": 0}
        d = out.to_dict()
        assert d["status"] == "shed"
        assert d["exit_code"] == EXIT_OVERLOADED
        assert d["policy"]["reason"] == "token-bucket"
        assert "total_weight" not in d  # no payload on refusals
        back = QueryOutcome.from_dict(d)
        assert back.status == "shed" and not back.served

    def test_degraded_line_keeps_payload(self):
        with service(
            policy=PolicyConfig(
                admission_rate=0.001,
                admission_burst=1,
                serve_stale=True,
                fresh_ttl_s=1e-6,
            )
        ) as svc:
            svc.submit(q(id="seed", priority=2)).outcome()
            time.sleep(0.01)
            out = svc.submit(q(id="later", priority=2)).outcome()
            d = out.to_dict()
            assert d["status"] == "degraded"
            assert d["total_weight"] > 0
            assert d["served_by"] == SERVED_STALE

    def test_ticket_reexport_unused_guard(self):
        # Ticket stays part of the public engine surface.
        assert Ticket.__name__ == "Ticket"
