"""Resilience subsystem: fault injection, invariants, recovery, chaos."""

import time

import numpy as np
import pytest

from repro.core.eclmst import ecl_mst
from repro.core.verify import reference_mst_mask
from repro.errors import (
    EXIT_INPUT_ERROR,
    EXIT_UNRECOVERED_FAULT,
    DeviceFault,
    GraphFormatError,
    InvariantViolation,
    ReproError,
    VerificationError,
)
from repro.generators.random_graphs import erdos_renyi
from repro.resilience import (
    FAULT_KINDS,
    Checkpoint,
    FaultEvent,
    FaultPlan,
    InvariantChecker,
    ResilienceConfig,
    run_campaign,
)
from repro.resilience import recovery

from helpers import make_graph


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(600, 3000, seed=11)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(seed=5, n_faults=10, launches=40, atomic_calls=20)
        b = FaultPlan.generate(seed=5, n_faults=10, launches=40, atomic_calls=20)
        assert a.events == b.events

    def test_generate_covers_all_kinds(self):
        plan = FaultPlan.generate(
            seed=1, n_faults=len(FAULT_KINDS), launches=40, atomic_calls=20
        )
        assert {e.kind for e in plan.events} == set(FAULT_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="cosmic-ray", index=0)

    def test_kernel_fail_raises_typed_fault(self, graph):
        plan = FaultPlan(
            seed=0, events=(FaultEvent(kind="kernel-fail", index=0),)
        )
        with pytest.raises(DeviceFault):
            ecl_mst(graph, fault_plan=plan)

    def test_summary_reports_injections(self, graph):
        plan = FaultPlan(
            seed=0, events=(FaultEvent(kind="bitflip-parent", index=3, bit=7),)
        )
        r = ecl_mst(graph, resilience=ResilienceConfig(), fault_plan=plan)
        fi = r.extra["fault_injection"]
        assert fi["planned"] == 1 and fi["injected"] == 1
        assert fi["by_kind"] == {"bitflip-parent": 1}


# ---------------------------------------------------------------------------
# Zero overhead / bit-identity
# ---------------------------------------------------------------------------
class TestZeroOverhead:
    def test_checks_off_is_bit_identical(self, graph):
        plain = ecl_mst(graph)
        guarded = ecl_mst(graph, resilience=ResilienceConfig(check_cadence=0))
        assert np.array_equal(plain.in_mst, guarded.in_mst)
        assert plain.modeled_seconds == guarded.modeled_seconds
        assert plain.counters.num_launches == guarded.counters.num_launches
        assert guarded.extra["resilience"]["checks_run"] == 0

    def test_checks_on_fault_free_same_result_and_counters(self, graph):
        plain = ecl_mst(graph)
        guarded = ecl_mst(graph, resilience=ResilienceConfig())
        assert np.array_equal(plain.in_mst, guarded.in_mst)
        # Invariant sweeps are host-side: modeled time is untouched.
        assert plain.modeled_seconds == guarded.modeled_seconds
        res = guarded.extra["resilience"]
        assert res["checks_run"] > 0 and res["detected"] == 0

    def test_resilience_metrics_surface(self, graph):
        from repro.obs.metrics import collect_result_metrics

        r = ecl_mst(graph, resilience=ResilienceConfig())
        m = collect_result_metrics(r)
        assert m["resilience.checks_run"] > 0
        assert m["resilience.detected"] == 0
        plain = collect_result_metrics(ecl_mst(graph))
        assert "resilience.checks_run" not in plain


# ---------------------------------------------------------------------------
# Invariant checker
# ---------------------------------------------------------------------------
class TestInvariants:
    def _state(self, graph):
        from repro.core.config import EclMstConfig
        from repro.core.kernels import MstState, kernel_init_populate
        from repro.gpusim.costmodel import Device
        from repro.gpusim.spec import RTX_3080_TI

        state = MstState.create(graph, EclMstConfig(), Device(RTX_3080_TI))
        kernel_init_populate(state, None, phase=0)
        return state, graph.edge_weight_table()

    def test_clean_state_passes(self, graph):
        state, wt = self._state(graph)
        chk = InvariantChecker()
        chk.bind(state, wt)
        chk.check_round(round_index=0)  # must not raise

    def test_parent_out_of_range_detected(self, graph):
        state, wt = self._state(graph)
        chk = InvariantChecker()
        chk.bind(state, wt)
        state.parent[3] = graph.num_vertices + 99
        with pytest.raises(InvariantViolation) as ei:
            chk.check_round(round_index=1)
        assert ei.value.invariant == "parent-range"
        assert ei.value.round_index == 1

    def test_parent_cycle_detected(self, graph):
        state, wt = self._state(graph)
        chk = InvariantChecker()
        chk.bind(state, wt)
        state.parent[0], state.parent[1] = 1, 0
        with pytest.raises(InvariantViolation) as ei:
            chk.check_round(round_index=2)
        assert ei.value.invariant == "parent-acyclic"

    def test_worklist_weight_mismatch_detected(self, graph):
        state, wt = self._state(graph)
        chk = InvariantChecker()
        chk.bind(state, wt)
        state.wl.front.w[0] += 1
        with pytest.raises(InvariantViolation) as ei:
            chk.check_round(round_index=0)
        assert ei.value.invariant == "worklist-live"


# ---------------------------------------------------------------------------
# Checkpoint
# ---------------------------------------------------------------------------
class TestCheckpoint:
    def test_capture_restore_roundtrip(self, graph):
        from repro.core.config import EclMstConfig
        from repro.core.kernels import (
            MstState,
            kernel1_reserve,
            kernel_init_populate,
        )
        from repro.gpusim.costmodel import Device
        from repro.gpusim.spec import RTX_3080_TI

        state = MstState.create(graph, EclMstConfig(), Device(RTX_3080_TI))
        kernel_init_populate(state, None, phase=0)
        cp = Checkpoint.capture(state)
        before_parent = state.parent.copy()
        before_front = len(state.wl.front)

        kernel1_reserve(state)  # mutates min_edge and the worklist
        state.parent[:] = 0
        state.in_mst[:] = True

        cp.restore(state)
        assert np.array_equal(state.parent, before_parent)
        assert not state.in_mst.any()
        assert len(state.wl.front) == before_front
        assert (state.min_edge == state.min_edge.max()).all()
        assert cp.nbytes > 0


# ---------------------------------------------------------------------------
# Recovery ladder
# ---------------------------------------------------------------------------
class TestRecovery:
    def test_bitflip_recovered_with_correct_result(self, graph):
        ref = reference_mst_mask(graph)
        plan = FaultPlan(
            seed=0,
            events=(FaultEvent(kind="bitflip-parent", index=4, lane=17, bit=5),),
        )
        r = ecl_mst(graph, resilience=ResilienceConfig(), fault_plan=plan)
        assert np.array_equal(r.in_mst, ref)
        res = r.extra["resilience"]
        assert res["detected"] >= 1

    def test_ladder_exhaustion_falls_back_to_serial(self, graph, monkeypatch):
        # Every launch fails -> retries and the phase restart both fail.
        events = tuple(
            FaultEvent(kind="kernel-fail", index=i) for i in range(400)
        )
        plan = FaultPlan(seed=0, events=events)
        r = ecl_mst(graph, resilience=ResilienceConfig(), fault_plan=plan)
        assert r.algorithm == "ecl-mst+serial-fallback"
        assert np.array_equal(r.in_mst, reference_mst_mask(graph))
        res = r.extra["resilience"]
        assert res["fallbacks"] == 1 and res["phase_restarts"] >= 1

    def test_phase_restart_recovers(self, graph, monkeypatch):
        # Launches 2-4 exhaust the round's retries; the restarted phase
        # runs fault-free under per-kernel checks and must finish on
        # the GPU path.  k3 launches after resetting its slots, so a
        # monotonic check there used to fail every restart.
        plan = FaultPlan(
            seed=0, events=tuple(FaultEvent(kind="kernel-fail", index=i) for i in (2, 3, 4))
        )
        r = ecl_mst(graph, resilience=ResilienceConfig(), fault_plan=plan)
        assert r.algorithm == "ecl-mst"
        assert np.array_equal(r.in_mst, reference_mst_mask(graph))
        res = r.extra["resilience"]
        assert res["phase_restarts"] == 1
        assert res["fallbacks"] == 0
        assert res["invariant_violations"] == 0

    def test_retry_never_sleeps(self, graph, monkeypatch):
        # The device is simulated and seeded faults are keyed by launch,
        # so a rollback-and-retry has nothing to wait for.
        def no_sleep(seconds):
            raise AssertionError(f"the ladder slept {seconds} s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        plan = FaultPlan(
            seed=0, events=(FaultEvent(kind="kernel-fail", index=2),)
        )
        r = ecl_mst(graph, resilience=ResilienceConfig(), fault_plan=plan)
        res = r.extra["resilience"]
        assert res["retries"] >= 1
        assert "backoff_seconds" not in res
        assert np.array_equal(r.in_mst, reference_mst_mask(graph))


# ---------------------------------------------------------------------------
# Chaos campaign
# ---------------------------------------------------------------------------
class TestCampaign:
    def test_campaign_no_escapes(self, graph):
        rep = run_campaign(graph, n_faults=18, seed=2)
        assert rep.injected >= 18
        assert rep.escaped == 0
        assert {k for t in rep.trials for k in t.kinds} == set(FAULT_KINDS)
        assert "PASS" in rep.render()

    def test_campaign_report_shape(self, graph):
        rep = run_campaign(
            graph, n_faults=6, seed=4, kinds=("bitflip-parent", "kernel-fail")
        )
        d = rep.to_dict()
        assert d["injected"] == rep.injected
        assert set(d["by_kind"]) <= {"bitflip-parent", "kernel-fail"}
        assert d["escaped"] == 0

    def test_campaign_detects_without_invariants(self, graph):
        # Even with sweeps off, the end-of-run verify detector must
        # keep corruption from escaping.
        rep = run_campaign(
            graph,
            n_faults=8,
            seed=6,
            kinds=("bitflip-minedge",),
            resilience=ResilienceConfig(check_cadence=0),
        )
        assert rep.escaped == 0


# ---------------------------------------------------------------------------
# Error taxonomy + CLI
# ---------------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(GraphFormatError, ReproError)
        assert issubclass(GraphFormatError, ValueError)
        assert issubclass(VerificationError, AssertionError)
        assert issubclass(DeviceFault, RuntimeError)
        assert issubclass(InvariantViolation, ReproError)

    def test_backcompat_reexports(self):
        from repro.baselines.errors import NotConnectedError as a
        from repro.errors import NotConnectedError as b

        assert a is b

    def test_cli_input_error_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.ecl"
        bad.write_bytes(b"definitely not an ECL graph")
        assert main(["mst", str(bad)]) == EXIT_INPUT_ERROR
        assert "input error" in capsys.readouterr().err

    def test_cli_negative_weight_names_line(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 4\n1 2 -9\n")
        assert main(["mst", str(bad)]) == EXIT_INPUT_ERROR
        assert ":2:" in capsys.readouterr().err

    def test_cli_chaos_passes(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import save_ecl

        g = erdos_renyi(200, 800, seed=3)
        path = tmp_path / "g.ecl"
        save_ecl(g, path)
        assert main(["chaos", str(path), "--faults", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "ESCAPED" in out

    def test_cli_chaos_unknown_kind(self, capsys):
        from repro.cli import main

        assert main(["chaos", "internet", "--kinds", "gremlins"]) == 2

    def test_exit_code_constants_distinct(self):
        codes = {EXIT_INPUT_ERROR, EXIT_UNRECOVERED_FAULT, 2, 1, 0}
        assert len(codes) == 5


# ---------------------------------------------------------------------------
# Telemetry join: the NDJSON event log and the span trace correlate
# ---------------------------------------------------------------------------
# Events a span writes at its own boundary (``Tracer.span``'s
# ``on_open``/``on_close``), and two seeded plans: one bitflip the
# round guard rolls back, and three failed launches that exhaust the
# round retries, restart the phase and end in the serial fallback.
BOUNDARY_EVENTS = {
    "solver.run.start",
    "solver.run.done",
    "solver.phase",
    "solver.round",
    "recovery.detected",
    "recovery.phase_restart",
    "recovery.fallback",
}
JOIN_PLANS = {
    "rollback": FaultPlan(
        seed=0, events=(FaultEvent(kind="bitflip-parent", index=4, lane=17, bit=5),)
    ),
    # Launches 2-4 exhaust the round's retries; launch 5 fails the
    # restarted phase too, so the ladder falls back.
    "restart-fallback": FaultPlan(
        seed=0, events=tuple(FaultEvent(kind="kernel-fail", index=i) for i in (2, 3, 4, 5))
    ),
}


def _logged_run(graph, plan, tracer):
    from repro.obs.events import ListSink, configure_events, reset_events

    sink = ListSink()
    configure_events(level="debug", extra_sinks=[sink], console=False)
    try:
        result = ecl_mst(
            graph, resilience=ResilienceConfig(), fault_plan=plan, tracer=tracer
        )
    finally:
        reset_events()
    return result, sink.events


def _without_span(events):
    return [
        (e.name, e.level, {k: v for k, v in e.fields.items() if k not in ("span", "run")})
        for e in events
    ]


class TestTelemetryJoin:
    @pytest.mark.parametrize("plan_name", sorted(JOIN_PLANS))
    @pytest.mark.parametrize("traced", [True, False], ids=["tracer", "null-tracer"])
    def test_resilience_events_join_trace_spans(self, graph, monkeypatch, traced, plan_name):
        from repro.obs.trace import Tracer

        plan = JOIN_PLANS[plan_name]
        tracer = Tracer() if traced else None
        r, events = _logged_run(graph, plan, tracer)
        assert r.extra["resilience"]["detected"] >= 1
        names = [e.name for e in events]
        assert {"fault.injected", "recovery.detected"} <= set(names)
        if plan_name == "restart-fallback":
            assert {"recovery.phase_restart", "recovery.fallback"} <= set(names)
            assert r.algorithm == "ecl-mst+serial-fallback"

        # The other tracer mode writes the same stream, span IDs aside.
        _, other = _logged_run(graph, plan, None if traced else Tracer())
        assert _without_span(events) == _without_span(other)

        # One run ID binds the whole story.
        runs = {e.fields["run"] for e in events if "run" in e.fields}
        assert len(runs) == 1
        assert next(iter(runs)).startswith("run-")

        boundary = [e for e in events if e.name in BOUNDARY_EVENTS]
        if not traced:
            # No tracer, no span to name.
            assert all(e.fields["span"] == 0 for e in boundary)
            return
        # Every event that claims a span joins to a real span ID in the
        # trace (span=0 means "no span active", never a dangle), and a
        # boundary event carries its own span's attrs.
        spans = {sp.id: sp for sp in tracer.spans()}
        correlated = [e for e in events if e.fields.get("span", 0) > 0]
        assert correlated, "no events carried a span correlation ID"
        for ev in correlated:
            assert ev.fields["span"] in spans, (
                f"{ev.name} points at unknown span {ev.fields['span']}"
            )
        for ev in boundary:
            attrs = spans[ev.fields["span"]].attrs
            fields = {k: v for k, v in ev.fields.items() if k not in ("span", "run")}
            assert fields.items() <= attrs.items(), ev.name

    def test_verify_detection_is_a_span_its_event_names(self, graph, monkeypatch):
        from repro.obs.trace import Tracer

        # An end-of-run reference that disagrees with the clean result
        # makes the verify detector fire.
        def skewed(g):
            ref = reference_mst_mask(g).copy()
            ref[np.flatnonzero(ref)[0]] = False
            return ref

        monkeypatch.setattr(recovery, "reference_mst_mask", skewed)
        tracer = Tracer()
        r, events = _logged_run(graph, FaultPlan(seed=0, events=()), tracer)
        assert r.extra["resilience"]["verify_detections"] == 1
        (span,) = [sp for sp in tracer.spans() if sp.name == "detected verify:result-mismatch"]
        (event,) = [e for e in events if e.name == "recovery.detected"]
        assert event.fields["span"] == span.id > 0
        assert span.attrs == {
            "detector": "verify", "kind": "result-mismatch", "round": -1, "kernel": "end-of-run"}

    def test_event_log_does_not_perturb_recovery(self, graph):
        from repro.obs.events import ListSink, configure_events, reset_events

        plan = FaultPlan(
            seed=0,
            events=(
                FaultEvent(kind="bitflip-parent", index=4, lane=17, bit=5),
            ),
        )
        plain = ecl_mst(graph, resilience=ResilienceConfig(), fault_plan=plan)
        configure_events(
            level="debug", extra_sinks=[ListSink()], console=False
        )
        try:
            logged = ecl_mst(
                graph, resilience=ResilienceConfig(), fault_plan=plan
            )
        finally:
            reset_events()
        assert logged.total_weight == plain.total_weight
        assert np.array_equal(logged.in_mst, plain.in_mst)
        assert (
            logged.extra["resilience"]["detected"]
            == plain.extra["resilience"]["detected"]
        )
