"""Flight recorder, postmortem bundles, and deterministic replay."""

import json
import threading

import pytest

from repro.errors import EXIT_REPLAY_DIVERGED, BundleError
from repro.obs import recorder
from repro.obs.events import NULL_EVENTS, EventLog, ListSink
from repro.obs.recorder import (
    BUNDLE_SCHEMA,
    FlightRecorder,
    TeeEventLog,
    bundle_summary,
    load_bundle,
    recent_bundles,
    render_postmortem,
    replay_bundle,
)
from repro.obs.slo import SLOTracker
from repro.resilience.policy import CircuitBreaker, PolicyConfig
from repro.service.engine import MSTService, ServiceConfig
from repro.service.query import Query

SCALE = 0.02


def ok_query(qid="ok-1", **kw):
    return Query(id=qid, input="internet", code="ECL-MST", scale=SCALE, **kw)


def fault_query(qid="boom", seed=7):
    """A seeded chaos query with no resilience: deterministic exit-5
    error outcome (the fault propagates)."""
    return Query(
        id=qid,
        input="internet",
        code="ECL-MST",
        scale=SCALE,
        n_faults=1,
        check_cadence=0,
        fault_kinds=("kernel-fail",),
        fault_seed=seed,
    )


def service(tmp_path, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("postmortem_dir", str(tmp_path / "pm"))
    return MSTService(ServiceConfig(**kw))


def bundles_in(tmp_path):
    return sorted((tmp_path / "pm").glob("PM_*.bundle"))


def outcome_bundle(tmp_path):
    """The one outcome-triggered bundle (a failed query's availability
    burn leaves its own ``slo.burn`` bundle beside it)."""
    (path,) = [
        p
        for p in bundles_in(tmp_path)
        if load_bundle(p)["reason"].startswith("outcome-")
    ]
    return path


# ---------------------------------------------------------------------------
# Ring buffers and the tee
# ---------------------------------------------------------------------------
class TestRingsAndTee:
    def test_event_ring_is_bounded(self, monkeypatch, tmp_path):
        monkeypatch.setattr(recorder, "EVENTS_CAPACITY", 4)
        rec = FlightRecorder(tmp_path)
        for i in range(10):
            rec.record_event("e", "info", {"i": i})
        tail = rec.debug_snapshot()["events"]
        assert [e["i"] for e in tail] == [6, 7, 8, 9]

    def test_tee_keeps_debug_detail_on_a_silent_log(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        tee = rec.tee(NULL_EVENTS)
        assert tee.enabled and tee.would_emit("debug")
        tee.emit("solver.round", level="debug", round=3)
        assert rec.debug_snapshot()["events"][-1]["round"] == 3

    def test_tee_forwards_to_inner_log_with_bound_fields(self, tmp_path):
        sink = ListSink()
        inner = EventLog(level="info", sinks=[sink])
        rec = FlightRecorder(tmp_path)
        tee = rec.tee(inner).bind(query="q9")
        tee.emit("service.execute", level="info", code="ECL-MST")
        assert sink.events[0].fields["query"] == "q9"
        assert rec.debug_snapshot()["events"][-1]["query"] == "q9"

    def test_tee_bind_composes(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        tee = rec.tee(NULL_EVENTS).bind(query="a").bind(run="r1")
        assert isinstance(tee, TeeEventLog)
        tee.emit("x")
        entry = rec.debug_snapshot()["events"][-1]
        assert (entry["query"], entry["run"]) == ("a", "r1")


class TestSpanRing:
    def test_ring_holds_query_trees_counted_in_queries(self, monkeypatch, tmp_path):
        monkeypatch.setattr(recorder, "TREES_CAPACITY", 2)
        with service(tmp_path, workers=1) as svc:
            svc.run_batch([ok_query(f"q{i}", stage=stage) for i, stage in
                           enumerate(("ECL-MST", "No Filter", "Thread-Based"))])
        trees = list(svc.recorder._trees)
        assert [qid for qid, _ in trees] == ["q1", "q2"]
        assert [root.name for _, root in trees] == ["query q1", "query q2"]
        assert svc.metrics()["obs.recorder.spans"] == 2.0

    def test_rows_link_parents_and_fold_kernels(self, tmp_path):
        with service(tmp_path) as svc:
            svc.run_batch([ok_query("a")])
        ((_, root),) = svc.recorder._trees
        rows = recorder.span_rows([("a", root)])
        assert all(r["query"] == "a" for r in rows)
        assert rows[0]["parent"] is None and rows[0]["name"] == "query a"
        ids = {r["id"] for r in rows if r["id"] is not None}
        assert all(r["parent"] in ids for r in rows[1:])
        assert "kernel" not in {r["kind"] for r in rows}
        # One summary row per span that launched kernels, and together
        # they count every launch in the tree.
        summaries = [r for r in rows if r["kind"] == "kernel-summary"]
        parents = {sp.id for sp, _, _ in root.walk()
                   if any(c.kind == "kernel" for c in sp.children)}
        assert sorted(r["parent"] for r in summaries) == sorted(parents)
        launches = sum(int(r["name"][1:].split()[0]) for r in summaries)
        assert launches == sum(1 for sp, _, _ in root.walk() if sp.kind == "kernel")

    def test_bundle_carries_the_failing_query_tree(self, tmp_path):
        with service(tmp_path) as svc:
            svc.run_batch([fault_query()])
        rows = load_bundle(outcome_bundle(tmp_path))["rings"]["spans"]
        boom = [r for r in rows if r["query"] == "boom"]
        root = boom[0]
        assert (root["name"], root["parent"]) == ("query boom", None)
        children = [r["name"] for r in boom if r["parent"] == root["id"]]
        assert children == [
            "queue wait", "resolve graph", "cache lookup", "load input", "run"]


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------
class TestCapture:
    def test_error_outcome_writes_a_bundle(self, tmp_path):
        with service(tmp_path) as svc:
            out = svc.run_batch([fault_query()])[0]
        assert out.status == "error" and out.exit_code == 5
        path = outcome_bundle(tmp_path)
        bundle = load_bundle(path)
        assert bundle["schema"] == BUNDLE_SCHEMA
        assert bundle["reason"] == "outcome-error"
        assert bundle["query"]["id"] == "boom"
        assert bundle["outcome"]["exit_code"] == 5
        assert bundle["repro"]["fault_seed"] == 7
        assert bundle["statusz"]["recorder"]["enabled"] is True
        assert any(
            e["event"] == "fault.injected" for e in bundle["rings"]["events"]
        )

    def test_cooldown_suppresses_repeat_bundles(self, tmp_path):
        with service(tmp_path) as svc:
            svc.run_batch([fault_query(f"b{i}", seed=7) for i in range(4)])
            metrics = svc.metrics()
        # Same spec failing repeatedly inside the cooldown window: one
        # outcome bundle, the rest counted as suppressed.
        outcome_bundle(tmp_path)
        assert metrics["service.postmortem.bundles"] == len(bundles_in(tmp_path))
        assert metrics["service.postmortem.suppressed"] >= 1.0

    def test_each_burning_slo_gets_its_own_bundle(self, tmp_path):
        # A shed-only overload burns availability and shed-rate within
        # one cooldown window: the cooldown is per SLO, so neither
        # burn's bundle is suppressed.
        pol = PolicyConfig(admission_rate=0.001, admission_burst=1)
        with service(tmp_path, workers=1, policy=pol) as svc:
            assert svc.submit(ok_query("in", priority=2)).outcome().ok
            for i in range(3):
                shed = Query(
                    id=f"out{i}",
                    input="internet",
                    code="ECL-MST",
                    scale=SCALE * (i + 2),
                    priority=2,
                )
                out = svc.submit(shed).outcome()
                assert out.status == "shed"
            metrics = svc.metrics()
        burns = [load_bundle(p) for p in bundles_in(tmp_path)]
        slos = sorted(
            b["trigger"]["slo"] for b in burns if b["reason"] == "slo.burn"
        )
        assert slos == ["availability", "shed-rate"]
        assert metrics.get("service.postmortem.suppressed", 0.0) == 0.0

    def test_failed_query_burn_gets_its_own_bundle(self, tmp_path):
        # The outcome bundle snapshots /statusz inside its capture
        # without deciding the availability burn, so the burn fires
        # after it, outside any capture, and writes its own bundle.
        with service(tmp_path) as svc:
            assert svc.run_batch([fault_query()])[0].status == "error"
        captured = {
            (b["reason"], (b["trigger"] or {}).get("slo"))
            for b in map(load_bundle, bundles_in(tmp_path))
        }
        assert ("outcome-error", None) in captured
        assert ("slo.burn", "availability") in captured

    def test_bundle_dir_is_pruned_to_limit(self, monkeypatch, tmp_path):
        monkeypatch.setattr(recorder, "BUNDLE_LIMIT", 2)
        monkeypatch.setattr(recorder, "BUNDLE_COOLDOWN_S", 0.0)
        with service(tmp_path) as svc:
            # Distinct seeds -> distinct specs -> distinct cooldown keys.
            svc.run_batch([fault_query(f"b{i}", seed=i) for i in range(5)])
        assert len(bundles_in(tmp_path)) == 2

    def test_trigger_event_on_tee_captures(self, tmp_path):
        rec = FlightRecorder(tmp_path / "pm")
        tee = rec.tee(NULL_EVENTS)
        tee.emit("invariant.violated", level="error", invariant="parent-root")
        (path,) = bundles_in(tmp_path)
        bundle = load_bundle(path)
        assert bundle["reason"] == "invariant.violated"
        assert bundle["trigger"]["invariant"] == "parent-root"
        assert bundle["query"] is None  # context capture, not replayable

    def test_breaker_open_captures_without_deadlock(self, tmp_path):
        cfg = ServiceConfig(
            workers=2,
            postmortem_dir=str(tmp_path / "pm"),
            policy=PolicyConfig(breaker_threshold=1),
        )
        done = []

        def drive():
            with MSTService(cfg) as svc:
                svc.run_batch([fault_query()])
                done.append(svc.metrics()["service.postmortem.bundles"])

        t = threading.Thread(target=drive, daemon=True)
        t.start()
        t.join(timeout=60.0)
        # The breaker.open event is emitted under the breaker's own
        # lock; a capture that re-entered service.status() would hang
        # here forever.
        assert done and done[0] >= 1.0
        reasons = {
            load_bundle(p)["reason"] for p in bundles_in(tmp_path)
        }
        assert "breaker.open" in reasons or "outcome-error" in reasons

    def test_disabled_recorder_never_writes(self, tmp_path):
        with service(tmp_path, postmortem_dir=None) as svc:
            out = svc.run_batch([fault_query()])[0]
            assert svc.recorder is None
            assert out.status == "error"
            assert "obs.recorder.events" not in svc.metrics()
        assert not (tmp_path / "pm").exists()

    def test_capture_crash_records_last_words(self, tmp_path):
        rec = FlightRecorder(tmp_path / "pm")
        path = rec.capture_crash(RuntimeError("worker pool exploded"))
        bundle = load_bundle(path)
        assert bundle["reason"] == "crash"
        assert bundle["trigger"]["type"] == "RuntimeError"


# ---------------------------------------------------------------------------
# Bundle files
# ---------------------------------------------------------------------------
class TestBundleFiles:
    def test_load_bundle_missing_file(self, tmp_path):
        with pytest.raises(BundleError, match="cannot read"):
            load_bundle(tmp_path / "nope.bundle")

    def test_load_bundle_malformed_json(self, tmp_path):
        p = tmp_path / "bad.bundle"
        p.write_text("{not json")
        with pytest.raises(BundleError, match="malformed"):
            load_bundle(p)

    def test_load_bundle_wrong_schema(self, tmp_path):
        p = tmp_path / "other.bundle"
        p.write_text(json.dumps({"schema": "something-else/v9"}))
        with pytest.raises(BundleError, match="not a postmortem bundle"):
            load_bundle(p)

    def test_bundle_error_is_an_input_error(self):
        from repro.errors import GraphFormatError

        assert issubclass(BundleError, GraphFormatError)

    def test_recent_bundles_lists_and_skips_garbage(self, tmp_path):
        with service(tmp_path) as svc:
            svc.run_batch([fault_query()])
        (tmp_path / "pm" / "PM_garbage.bundle").write_text("nope")
        rows = recent_bundles(tmp_path / "pm")
        assert len(rows) == len(bundles_in(tmp_path)) - 1  # no garbage
        (row,) = [r for r in rows if r["reason"] == "outcome-error"]
        assert row["query"] == "boom"
        assert row["exit_code"] == 5
        assert recent_bundles(tmp_path / "absent") == []

    def test_render_postmortem_report(self, tmp_path):
        with service(tmp_path) as svc:
            svc.run_batch([ok_query(), fault_query()])
        path = outcome_bundle(tmp_path)
        report = render_postmortem(load_bundle(path))
        assert "postmortem: outcome-error" in report
        assert "query boom" in report
        assert "fault_seed" in report
        assert "event timeline" in report
        assert "fault.injected" in report
        assert "correlated spans" in report
        assert "headline metrics" in report
        # Profiles come from the last successful run only, so the
        # roofline is that of ok-1.
        assert "roofline of the last profiled run, ecl-mst on internet" in report
        summary = bundle_summary(load_bundle(path), path)
        assert summary["reason"] == "outcome-error"
        assert summary["error_kind"] == "fault"


    def test_postmortem_names_the_profiled_run(self, tmp_path):
        """The roofline belongs to the last successful run, not to the
        failing query, and the report says which run that was."""
        ok = Query(id="ok-rmat", input="rmat22.sym", code="ECL-MST", scale=SCALE)
        with service(tmp_path, workers=1) as svc:
            svc.run_batch([ok, fault_query()])
        report = render_postmortem(load_bundle(outcome_bundle(tmp_path)))
        assert "query boom" in report
        (line,) = [l for l in report.splitlines() if l.startswith("roofline")]
        assert line == (
            "roofline of the last profiled run, ecl-mst on rmat22.sym "
            "(hottest kernels):"
        )


# ---------------------------------------------------------------------------
# Deterministic replay
# ---------------------------------------------------------------------------
class TestReplay:
    def test_seeded_fault_replays_bit_identically(self, tmp_path):
        with service(tmp_path) as svc:
            recorded = svc.run_batch([fault_query()])[0]
        path = outcome_bundle(tmp_path)
        report = replay_bundle(load_bundle(path), bundle_path=path)
        assert report.matched, report.diffs
        assert report.exit_code == 0
        assert report.replayed["status"] == recorded.status == "error"
        assert report.replayed["exit_code"] == 5
        assert report.replayed["error"] == recorded.error
        assert "MATCH" in report.render()

    def test_ok_outcome_replays_full_payload(self, tmp_path):
        rec = FlightRecorder(tmp_path / "pm")
        with service(tmp_path, postmortem_dir=None) as svc:
            q = ok_query()
            out = svc.run_batch([q])[0]
        path = rec.capture(reason="manual", query=q, outcome=out)
        report = replay_bundle(load_bundle(path), bundle_path=path)
        assert report.matched, report.diffs
        for field in ("total_weight", "mst_digest", "metrics", "rounds"):
            assert report.replayed[field] == report.recorded[field]

    def test_divergence_is_reported_with_exit_7(self, tmp_path):
        with service(tmp_path) as svc:
            svc.run_batch([fault_query()])
        path = outcome_bundle(tmp_path)
        bundle = load_bundle(path)
        bundle["outcome"]["exit_code"] = 99  # tamper the record
        report = replay_bundle(bundle, bundle_path=path)
        assert not report.matched
        assert report.exit_code == EXIT_REPLAY_DIVERGED == 7
        assert "exit_code" in report.diffs
        assert "DIVERGED" in report.render()
        assert report.to_dict()["diffs"]["exit_code"]["recorded"] == 99

    def test_bundle_without_query_is_not_replayable(self, tmp_path):
        rec = FlightRecorder(tmp_path / "pm")
        path = rec.capture(reason="slo.burn")
        with pytest.raises(BundleError, match="no captured query"):
            replay_bundle(load_bundle(path))


# ---------------------------------------------------------------------------
# Zero-overhead contract: recorder on == recorder off, bit for bit
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def test_results_identical_with_recorder_on_and_off(self, tmp_path):
        queries = [
            ok_query("a"),
            ok_query("b", system=1),
            fault_query("f", seed=3),
        ]
        with service(tmp_path) as svc_on:
            on = svc_on.run_batch([q for q in queries])
        with service(tmp_path, postmortem_dir=None) as svc_off:
            off = svc_off.run_batch([q for q in queries])
        for a, b in zip(on, off):
            assert a.replay_identity() == b.replay_identity()
            assert a.error == b.error


# ---------------------------------------------------------------------------
# Exemplars and the recorder status block
# ---------------------------------------------------------------------------
class TestExemplarsAndMetrics:
    def test_slo_exemplar_surfaces_on_burn(self):
        t = SLOTracker(window_s=60.0)
        t.record(ok=True, latency_s=0.01, query_id="good")
        t.record(ok=False, latency_s=0.01, query_id="bad-query")
        status = {s.spec.name: s for s in t.evaluate()}
        assert status["availability"].alerting
        assert status["availability"].exemplar == "bad-query"
        assert status["availability"].to_dict()["exemplar"] == "bad-query"
        # Healthy SLOs carry no exemplar.
        assert status["escaped-faults"].exemplar is None

    def test_breaker_remembers_last_failing_query(self):
        b = CircuitBreaker(PolicyConfig(breaker_threshold=2), "graph-x")
        b.record(False, query_id="q1")
        b.record(False, query_id="q2")
        snap = b.snapshot()
        assert snap["state"] == "open"
        assert snap["last_failure_query"] == "q2"

    def test_statusz_carries_recorder_block(self, tmp_path):
        with service(tmp_path) as svc:
            assert svc.status()["recorder"]["enabled"] is True
        with service(tmp_path, postmortem_dir=None) as svc:
            assert svc.status()["recorder"] == {"enabled": False}
