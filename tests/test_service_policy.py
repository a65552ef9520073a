"""Service-level tests for overload-safe serving (ServiceConfig.policy).

Covers the integration surface: typed shed/degraded/quarantined/
cancelled outcomes and their exit codes, priority-ordered shedding,
stale degraded serving, breaker open/recover through the service,
solver-side timeouts, the dedup-leak regression, ``close(wait=False)``
semantics, concurrent recovery-ladder chaos queries, and the
chaos-under-load campaign.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import EXIT_OVERLOADED, DeadlineExceeded
from repro.obs.events import EventLog, ListSink
from repro.obs.recorder import load_bundle
from repro.resilience import run_service_campaign
from repro.resilience.policy import PolicyConfig, ResiliencePolicy
from repro.service import MSTService, Query, ServiceConfig, execute_query
from repro.service.admin import render_prometheus
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

    def test_policy_families_present_from_first_scrape(self):
        with service(policy=PolicyConfig(breaker_threshold=1)) as svc:
            types = {
                line.split(" ")[2]: line.split(" ")[3]
                for line in render_prometheus(svc).splitlines()
                if line.startswith("# TYPE repro_resilience_policy_")
            }
        assert types == {
            "repro_resilience_policy_breakers_open": "gauge",
            **{
                f"repro_resilience_policy_{key}": "counter"
                for key in ResiliencePolicy.COUNTERS
            },
        }


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
            assert m["resilience.policy.admitted"] == 1
            assert m["resilience.policy.shed"] == 1
            shed_slo = next(
                s for s in svc.slo_statuses() if s.spec.name == "shed-rate"
            )
            assert shed_slo.sli == pytest.approx(0.5)

    def test_shed_burn_is_reported_without_any_reader(self, tmp_path):
        # No status(), metrics() or /metrics scrape: the SLOs are
        # evaluated as each query finishes.
        pol = PolicyConfig(admission_rate=0.001, admission_burst=1)
        sink = ListSink()
        config = ServiceConfig(
            workers=1, policy=pol, postmortem_dir=str(tmp_path)
        )
        with MSTService(config, events=EventLog(sinks=[sink])) as svc:
            assert svc.submit(q(id="in", priority=2)).outcome().ok
            for i in range(3):
                out = svc.submit(
                    q(id=f"out{i}", priority=2, scale=SCALE * (i + 2))
                ).outcome()
                assert out.status == "shed"
        burned = {
            e.fields["slo"] for e in sink.events if e.name == "slo.burn"
        }
        assert "shed-rate" in burned
        reasons = [load_bundle(p)["reason"] for p in tmp_path.glob("PM_*.bundle")]
        # One bundle per burning SLO (availability burns too).
        assert reasons.count("slo.burn") == len(burned)

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
        assert out.status == "timeout"
        assert out.error_kind == "timeout"

    def test_solver_timeout_is_never_retried_and_degrades(self, monkeypatch):
        import repro.service.engine as engine

        real_execute = engine.execute_query
        real_resolve = MSTService._resolve_graph
        executions = []

        def counting_execute(query, graph=None, **kw):
            executions.append(query.id)  # the fallback executes nothing
            return real_execute(query, graph, **kw)

        def slow_resolve(self, query):
            graph = real_resolve(self, query)
            time.sleep(0.2)  # past the deadline, after the queue check
            return graph

        monkeypatch.setattr(engine, "execute_query", counting_execute)
        monkeypatch.setattr(MSTService, "_resolve_graph", slow_resolve)
        pol = PolicyConfig(degrade_serial=True)
        with service(policy=pol) as svc:
            ticket = svc.submit(q(id="late", timeout_s=0.1))
            # The waiter gives up at the deadline; the worker's own
            # answer (the solver raised DeadlineExceeded at round 0)
            # is on the future.
            out = ticket.future.result(timeout=30.0)
        assert executions == ["late"]
        assert "retries" not in out.policy
        assert out.status == "degraded"
        assert out.served_by == SERVED_FALLBACK
        assert out.policy["original_error"] == "timeout"
        assert out.policy["cause"] == "failed:timeout"


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

    def test_quarantined_counter_counts_refused_queries_only(self):
        pol = PolicyConfig(quarantine_after=2)
        with service(policy=pol) as svc:
            for i in range(2):
                assert svc.submit(poison(id=f"try{i}")).outcome().status == "error"
            counter = svc.registry.counter("resilience.policy.quarantined")
            assert counter.value == 0  # the edge is the policy.quarantine event
            for i in range(2):
                out = svc.submit(poison(id=f"refused{i}")).outcome()
                assert out.status == "quarantined"
            assert counter.value == 2


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
            assert out.mst_digest == clean.mst_digest
            assert out.result_key == ""  # never cached as the real answer

    def test_one_serial_kruskal_per_graph(self, monkeypatch):
        """Verify, the ladder's end-of-run detector and the degraded
        answer all read the graph's one cached reference MSF."""
        import repro.core.verify as verify

        calls = []
        real = verify.spanning_forest

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(verify, "spanning_forest", counting)
        with service(policy=PolicyConfig(degrade_serial=True), workers=1) as svc:
            guarded = svc.submit(q(id="guarded", check_cadence=1, verify=True)).outcome()
            assert guarded.ok and guarded.resilience["checks_run"] > 0
            out = svc.submit(poison(id="broken")).outcome()
        assert out.served_by == SERVED_FALLBACK
        assert out.mst_digest == guarded.mst_digest
        assert len(calls) == 1


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
        pol = PolicyConfig(breaker_threshold=3)
        with service(policy=pol, workers=3) as svc:
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

    def test_a_served_answer_with_another_edge_set_escapes(self):
        from repro.resilience.campaign import ServiceCampaignReport

        reference = execute_query(q(id="reference"))
        report = ServiceCampaignReport(graph_name="internet", seed=0)
        report.observe(reference, reference=reference)
        assert report.escaped == 0
        # Same weight and edge count, other edges: still escaped.
        twin = QueryOutcome.from_dict({**reference.to_dict(), "mst_digest": "0" * 16})
        report.observe(twin, reference=reference)
        assert report.escaped == 1


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
