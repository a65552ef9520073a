"""Span tracer tests: nesting invariants and the zero-overhead contract."""

import numpy as np

from repro.core.config import EclMstConfig
from repro.core.eclmst import ecl_mst
from repro.obs import NULL_TRACER, Span, Tracer


class TestSpanBasics:
    def test_nesting_and_attrs(self):
        tr = Tracer()
        with tr.span("outer", "run", graph="g") as outer:
            assert tr.current is outer
            with tr.span("inner", "round"):
                tr.annotate(survivors=7)
        assert tr.current is None
        assert len(tr.roots) == 1
        assert (outer.kind, outer.attrs["graph"]) == ("run", "g")
        assert outer.children[0].attrs["survivors"] == 7
        assert outer.wall_end is not None
        assert outer.wall_seconds >= outer.children[0].wall_seconds

    def test_walk_depths(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    pass
        depths = [d for _, d, _ in tr.walk()]
        assert depths == [0, 1, 2]
        parents = [p.name if p else None for _, _, p in tr.walk()]
        assert parents == [None, "a", "b"]

    def test_exception_closes_span(self):
        tr = Tracer()
        try:
            with tr.span("boom"):
                raise ValueError()
        except ValueError:
            pass
        assert tr.current is None
        assert tr.roots[0].wall_end is not None

    def test_span_to_dict(self):
        sp = Span(name="x", kind="round", attrs={"k": 1})
        d = sp.to_dict()
        assert d["name"] == "x" and d["kind"] == "round"
        assert d["attrs"] == {"k": 1}


class TestTracerClock:
    """The tracer owns both clocks: kernels advance the modeled one."""

    def test_kernel_advances_modeled_clock(self):
        from repro.gpusim.counters import KernelCounters

        tr = Tracer()
        with tr.span("outer") as outer:
            a = tr.kernel(KernelCounters(name="a", modeled_seconds=2.0))
            b = tr.kernel(KernelCounters(name="b", modeled_seconds=3.0))
        assert (a.modeled_start, a.modeled_end) == (0.0, 2.0)
        assert (b.modeled_start, b.modeled_end) == (2.0, 5.0)
        assert (outer.modeled_start, outer.modeled_end) == (0.0, 5.0)
        assert tr.modeled_now == 5.0
        # Each kernel's wall interval starts where the last span event
        # left the mark, so siblings tile the parent without overlap.
        assert outer.wall_start <= a.wall_start <= a.wall_end
        assert a.wall_end == b.wall_start <= b.wall_end <= outer.wall_end

    def test_open_span_reads_zero_modeled_time(self):
        tr = Tracer()
        with tr.span("open") as sp:
            assert sp.modeled_seconds == 0.0


def _assert_wall_nesting(root):
    """Every span's children lie inside its wall interval, in order."""
    for sp, _depth, _parent in root.walk():
        prev_end = sp.wall_start
        for child in sp.children:
            assert prev_end <= child.wall_start <= child.wall_end <= sp.wall_end
            prev_end = child.wall_end


class TestServiceSpanClocks:
    def _query_tree(self):
        from repro.service.engine import run_query
        from repro.service.query import Query

        tr = Tracer()
        run_query(
            Query(id="q", input="internet", code="ECL-MST", scale=0.02), tr
        )
        (root,) = tr.roots
        return tr, root

    def test_service_spans_carry_the_run_modeled_time(self):
        tr, root = self._query_tree()
        load, run = root.children
        solve, verify = run.children  # queries verify by default
        assert (root.name, solve.name, verify.name) == (
            "query q", "ecl-mst on internet", "verify")
        assert solve.modeled_seconds > 0
        assert root.modeled_seconds == run.modeled_seconds == solve.modeled_seconds
        assert load.modeled_seconds == 0.0

    def test_kernel_spans_have_wall_time_inside_their_parents(self):
        tr, root = self._query_tree()
        kernels = tr.spans(kind="kernel")
        assert kernels
        assert all(k.wall_seconds > 0 for k in kernels)
        _assert_wall_nesting(root)

    def test_grid_cells_follow_each_other_on_one_clock(self):
        from repro.bench.harness import SYSTEM2, run_grid
        from repro.generators import grid2d

        tr = Tracer()
        graphs = {"g1": grid2d(8, seed=1), "g2": grid2d(9, seed=2)}
        run_grid(("ECL-MST", "Jucele GPU"), graphs, SYSTEM2, tracer=tr)
        cells = tr.roots
        assert [sp.kind for sp in cells] == ["service"] * 4
        for cell in cells:
            _load, run = cell.children
            (solve,) = run.children
            assert cell.modeled_start <= solve.modeled_start
            assert solve.modeled_end <= cell.modeled_end
            assert solve.modeled_seconds > 0
        for prev, cur in zip(cells, cells[1:]):
            assert prev.modeled_end <= cur.modeled_start


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", "run") as sp:
            sp.annotate(x=1)
        NULL_TRACER.annotate(y=2)
        NULL_TRACER.kernel(None)
        assert not NULL_TRACER.enabled


class TestBoundaryEvents:
    """A span given an event log writes its own open/close events."""

    def _log(self):
        from repro.obs.events import EventLog, ListSink

        sink = ListSink()
        return EventLog(level="info", sinks=[sink]), sink

    def test_both_tracers_write_attrs_and_span_id(self):
        for tracer in (Tracer(), NULL_TRACER):
            log, sink = self._log()
            with tracer.span(
                "r", "round", log=log, on_open="r.open", on_close="r.close", n=1
            ) as sp:
                sp.annotate(kind="fault-kind")
            span_id = sp.id if tracer.enabled else 0
            assert [(e.name, e.fields) for e in sink.events] == [
                ("r.open", {"n": 1, "span": span_id}),
                ("r.close", {"n": 1, "kind": "fault-kind", "span": span_id}),
            ]
            if tracer.enabled:
                assert (sp.kind, sp.attrs) == ("round", {"n": 1, "kind": "fault-kind"})

    def test_no_close_event_after_an_exception(self):
        for tracer in (Tracer(), NULL_TRACER):
            log, sink = self._log()
            try:
                with tracer.span("r", "round", log=log, on_open="r.open", on_close="r.close"):
                    raise ValueError()
            except ValueError:
                pass
            assert [e.name for e in sink.events] == ["r.open"]

    def test_mark_is_a_zero_length_span(self):
        log, sink = self._log()
        tr = Tracer()
        sp = tr.mark("m", "recovery", log=log, on_close="m.done", level="warning", cause="x")
        assert tr.roots == [sp] and sp.children == []
        assert [(e.name, e.level, e.fields) for e in sink.events] == [
            ("m.done", "warning", {"cause": "x", "span": sp.id})
        ]

    def test_null_tracer_without_a_listener_returns_the_shared_noop(self):
        log, sink = self._log()
        quiet = NULL_TRACER.span("r", "round", log=log, on_close="r.close", level="debug")
        assert quiet is NULL_TRACER.span("other")
        with quiet as sp:
            sp.annotate(x=1)
        assert sink.events == []


class TestEclMstTracing:
    def test_run_phase_round_kernel_hierarchy(self, medium_graph):
        tr = Tracer()
        r = ecl_mst(medium_graph, tracer=tr)
        assert len(tr.roots) == 1
        run = tr.roots[0]
        assert run.kind == "run"
        # Direct children: the host-side "build state" span plus the
        # algorithm phases.
        assert all(ch.kind in ("phase", "host") for ch in run.children)
        assert [ch.kind for ch in run.children].count("host") == 1
        rounds = [
            sp for phase in run.children for sp in phase.children
            if sp.kind == "round"
        ]
        assert len(rounds) == r.rounds
        # Every kernel span sits under the run (init under a phase,
        # k1/k2/k3/host_sync under rounds), one per recorded launch.
        kernels = tr.spans(kind="kernel")
        assert len(kernels) == r.counters.num_launches
        names = {sp.name for sp in kernels}
        assert {"init", "k1_reserve", "host_sync"} <= names

    def test_round_spans_carry_stats(self, medium_graph):
        tr = Tracer()
        r = ecl_mst(medium_graph, EclMstConfig(filtering=False), tracer=tr)
        rounds = tr.spans(kind="round")
        for sp, stats in zip(rounds, r.round_stats):
            assert sp.attrs["entries"] == stats.entries
            assert sp.attrs["survivors"] == stats.survivors
            assert sp.attrs["added"] == stats.added

    def test_modeled_clock_matches_counters(self, medium_graph):
        tr = Tracer()
        r = ecl_mst(medium_graph, tracer=tr)
        run = tr.roots[0]
        assert run.modeled_seconds is not None
        assert np.isclose(
            run.modeled_seconds, r.counters.total_seconds, rtol=0, atol=1e-12
        )
        # Kernel spans tile the run's modeled interval.
        kernel_sum = sum(
            sp.modeled_seconds for sp in tr.spans(kind="kernel")
        )
        assert np.isclose(kernel_sum, run.modeled_seconds, atol=1e-12)

    def test_tracing_is_a_pure_observer(self, medium_graph):
        """Solver output and counters are identical with tracing on/off."""
        base = ecl_mst(medium_graph)
        traced = ecl_mst(medium_graph, tracer=Tracer())
        assert traced.total_weight == base.total_weight
        assert traced.num_mst_edges == base.num_mst_edges
        assert np.array_equal(traced.in_mst, base.in_mst)
        assert traced.modeled_seconds == base.modeled_seconds  # bitwise
        assert traced.counters.summary() == base.counters.summary()
        assert traced.rounds == base.rounds

    def test_topology_driven_rounds_traced(self, medium_graph):
        tr = Tracer()
        r = ecl_mst(medium_graph, EclMstConfig(data_driven=False), tracer=tr)
        rounds = tr.spans(kind="round")
        assert len(rounds) == r.rounds
        assert rounds[-1].attrs["survivors"] == 0


class TestBaselineTracing:
    def test_jucele_traced(self):
        from repro.baselines.jucele import jucele_mst
        from repro.generators import grid2d

        g = grid2d(8, seed=1)
        tr = Tracer()
        r = jucele_mst(g, tracer=tr)
        run = tr.roots[0]
        assert run.kind == "run"
        rounds = [sp for sp in run.children if sp.kind == "round"]
        assert len(rounds) == r.rounds
        # boruvka_round annotates the open round span.
        assert "cross_edges" in rounds[0].attrs
        assert len(tr.spans(kind="kernel")) == r.counters.num_launches

    def test_baseline_untraced_unchanged(self):
        from repro.baselines.jucele import jucele_mst
        from repro.generators import grid2d

        g = grid2d(8, seed=1)
        base = jucele_mst(g)
        traced = jucele_mst(g, tracer=Tracer())
        assert base.total_weight == traced.total_weight
        assert base.counters.summary() == traced.counters.summary()


class TestHarnessTracing:
    def test_run_cell_records_one_query_tree(self):
        from repro.bench.harness import SYSTEM2, run_cell
        from repro.generators import grid2d

        g = grid2d(8, seed=1)
        tr = Tracer()
        cell = run_cell("ECL-MST", g, SYSTEM2, tracer=tr)
        assert cell.seconds is not None
        (root,) = tr.roots
        assert (root.kind, root.name) == ("service", f"query {g.name}")
        load, run = root.children
        assert (load.name, run.name, run.attrs["code"]) == ("load input", "run", "ECL-MST")
        assert run.children[0].kind == "run"
        assert root.modeled_seconds == cell.seconds

    def test_run_cell_nc_annotated(self):
        from repro.bench.harness import SYSTEM2, run_cell
        from repro.generators import preferential_attachment

        g = preferential_attachment(60, 2, num_components=3, seed=1)
        tr = Tracer()
        cell = run_cell("Jucele GPU", g, SYSTEM2, tracer=tr)
        assert cell.is_nc
        (root,) = tr.roots
        _load, run = root.children
        assert run.wall_end is not None and root.modeled_seconds == 0.0
