"""Resilience subsystem: fault injection, invariants, recovery, chaos."""

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
        monkeypatch.setattr(recovery, "BACKOFF_BASE_S", 0.0)
        events = tuple(
            FaultEvent(kind="kernel-fail", index=i) for i in range(400)
        )
        plan = FaultPlan(seed=0, events=events)
        r = ecl_mst(graph, resilience=ResilienceConfig(), fault_plan=plan)
        assert r.algorithm == "ecl-mst+serial-fallback"
        assert np.array_equal(r.in_mst, reference_mst_mask(graph))
        res = r.extra["resilience"]
        assert res["fallbacks"] == 1 and res["phase_restarts"] >= 1

    def test_backoff_accounted(self, graph, monkeypatch):
        monkeypatch.setattr(recovery, "BACKOFF_BASE_S", 1e-6)
        monkeypatch.setattr(recovery, "BACKOFF_MAX_S", 1e-5)
        plan = FaultPlan(
            seed=0, events=(FaultEvent(kind="kernel-fail", index=2),)
        )
        r = ecl_mst(graph, resilience=ResilienceConfig(), fault_plan=plan)
        res = r.extra["resilience"]
        assert res["retries"] >= 1
        assert 0 < res["backoff_seconds"] <= 1e-5 * res["retries"]


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
class TestTelemetryJoin:
    def test_resilience_events_join_trace_spans(self, graph):
        from repro.obs.events import ListSink, configure_events, reset_events
        from repro.obs.trace import Tracer

        sink = ListSink()
        configure_events(level="debug", extra_sinks=[sink], console=False)
        tracer = Tracer()
        plan = FaultPlan(
            seed=0,
            events=(
                FaultEvent(kind="bitflip-parent", index=4, lane=17, bit=5),
            ),
        )
        try:
            r = ecl_mst(
                graph,
                resilience=ResilienceConfig(),
                fault_plan=plan,
                tracer=tracer,
            )
        finally:
            reset_events()
        assert r.extra["resilience"]["detected"] >= 1

        names = [e.name for e in sink.events]
        assert "fault.injected" in names
        assert "recovery.detected" in names

        # Every event that claims a span must join to a real span ID in
        # the trace (span=0 means "no span active", never a dangle).
        span_ids = {sp.id for sp in tracer.spans()}
        correlated = [
            e for e in sink.events if e.fields.get("span", 0) > 0
        ]
        assert correlated, "no events carried a span correlation ID"
        for ev in correlated:
            assert ev.fields["span"] in span_ids, (
                f"{ev.name} points at unknown span {ev.fields['span']}"
            )

        # One run ID binds the whole story.
        runs = {
            e.fields["run"] for e in sink.events if "run" in e.fields
        }
        assert len(runs) == 1
        assert next(iter(runs)).startswith("run-")

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
