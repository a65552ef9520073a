"""Exporter tests: Chrome-trace JSON schema and NDJSON span logs."""

import json

from repro.core.eclmst import ecl_mst
from repro.obs import (
    Tracer,
    chrome_trace_events,
    host_hotspots,
    to_chrome_trace_json,
    to_ndjson,
    write_chrome_trace,
    write_ndjson,
)


def _traced(graph):
    tr = Tracer()
    result = ecl_mst(graph, tracer=tr)
    return tr, result


class TestChromeTrace:
    def test_schema(self, medium_graph):
        tr, _ = _traced(medium_graph)
        events = json.loads(to_chrome_trace_json(tr))
        assert isinstance(events, list) and events
        for e in events:
            assert {"name", "ph", "ts", "dur", "pid", "tid", "cat"} <= set(e)
            assert e["ph"] == "X"
            assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
            assert e["dur"] >= 0
            assert isinstance(e["args"], dict)

    def test_modeled_microsecond_timebase(self, medium_graph):
        tr, result = _traced(medium_graph)
        events = chrome_trace_events(tr)
        kernel_events = [e for e in events if e["cat"] == "kernel"]
        total_us = sum(e["dur"] for e in kernel_events)
        assert abs(total_us - result.counters.total_seconds * 1e6) < 1e-3
        # Kernel events are laid out sequentially on the modeled clock.
        for prev, cur in zip(kernel_events, kernel_events[1:]):
            assert cur["ts"] >= prev["ts"] - 1e-9

    def test_events_carry_span_kinds(self, medium_graph):
        tr, _ = _traced(medium_graph)
        cats = {e["cat"] for e in chrome_trace_events(tr)}
        assert {"run", "phase", "round", "kernel"} <= cats

    def test_args_json_safe(self, medium_graph):
        tr, _ = _traced(medium_graph)
        text = to_chrome_trace_json(tr)
        json.loads(text)  # numpy scalars etc. must have been coerced

    def test_write_file(self, medium_graph, tmp_path):
        tr, _ = _traced(medium_graph)
        path = tmp_path / "trace.json"
        write_chrome_trace(tr, str(path))
        assert isinstance(json.loads(path.read_text()), list)


class TestNdjson:
    def test_one_record_per_span(self, medium_graph):
        tr, _ = _traced(medium_graph)
        lines = to_ndjson(tr).strip().splitlines()
        assert len(lines) == len(tr.spans())
        records = [json.loads(line) for line in lines]
        for rec in records:
            assert {"name", "kind", "id", "parent_id", "depth"} <= set(rec)

    def test_lineage_reconstructible(self, medium_graph):
        tr, _ = _traced(medium_graph)
        records = [json.loads(l) for l in to_ndjson(tr).strip().splitlines()]
        by_id = {r["id"]: r for r in records}
        for rec in records:
            if rec["parent_id"] is None:
                assert rec["depth"] == 0
            else:
                assert by_id[rec["parent_id"]]["depth"] == rec["depth"] - 1

    def test_event_span_ids_name_their_records(self, medium_graph):
        """An event's ``span`` field is the ``id`` of the NDJSON record
        of the span that emitted it."""
        from repro.obs.events import EventLog, ListSink

        sink = ListSink()
        tr = Tracer()
        ecl_mst(medium_graph, tracer=tr, events=EventLog(level="debug", sinks=[sink]))
        by_id = {r["id"]: r for r in map(json.loads, to_ndjson(tr).splitlines())}
        cited = [e for e in sink.events if e.fields.get("span")]
        assert {"solver.round", "solver.phase"} <= {e.name for e in cited}
        for e in cited:
            rec = by_id[e.fields["span"]]
            if e.name == "solver.round":
                assert (rec["kind"], rec["name"]) == ("round", f"round {e.fields['round']}")
            elif e.name == "solver.phase":
                assert rec["kind"] == "phase"

    def test_empty_tracer(self):
        assert to_ndjson(Tracer()) == ""
        assert json.loads(to_chrome_trace_json(Tracer())) == []

    def test_write_file(self, medium_graph, tmp_path):
        tr, _ = _traced(medium_graph)
        path = tmp_path / "spans.ndjson"
        write_ndjson(tr, str(path))
        assert path.read_text().endswith("\n")

    def test_write_empty_tracer_valid_outputs(self, tmp_path):
        """A run that traced nothing still exports well-formed files."""
        empty = Tracer()
        nd = tmp_path / "spans.ndjson"
        ch = tmp_path / "trace.json"
        write_ndjson(empty, str(nd))
        write_chrome_trace(empty, str(ch))
        assert nd.read_text() == ""
        assert json.loads(ch.read_text()) == []


class TestHostHotspots:
    def test_empty_tracer(self):
        assert host_hotspots(Tracer()) == []

    def test_rows_shape_and_order(self, medium_graph):
        tr, _ = _traced(medium_graph)
        rows = host_hotspots(tr)
        assert rows
        for row in rows:
            assert {"name", "kind", "count", "wall_seconds"} <= set(row)
            assert row["wall_seconds"] >= 0.0
        walls = [r["wall_seconds"] for r in rows]
        assert walls == sorted(walls, reverse=True)

    def test_rounds_folded(self, medium_graph):
        """Per-round spans aggregate under one "round *" row instead of
        one row per round."""
        tr, result = _traced(medium_graph)
        rows = {r["name"]: r for r in host_hotspots(tr, top=100)}
        assert "round *" in rows
        assert rows["round *"]["count"] == result.rounds
        assert not any(name.startswith("round 1") for name in rows)

    def test_top_truncates(self, medium_graph):
        tr, _ = _traced(medium_graph)
        assert len(host_hotspots(tr, top=2)) == 2
