"""Flight-recorder overhead — recorder-on vs recorder-off serving.

The recorder is always-on by default, so its cost is part of every
serve path.  This module measures the same mixed batch (cache-cold
executions across several inputs plus one seeded-fault query) with the
recorder armed and disarmed and asserts the solver results are
bit-identical either way (the recorder only observes, never perturbs).
Its cost is measured per call: :func:`measure_per_call` times the two
hooks every served query pays against the query itself and writes
``recorder_overhead.json`` to the benchmark output directory.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.service import MSTService, Query, ServiceConfig

from _artifacts import write_artifact

SERVICE_SCALE = 0.06
INPUTS = ("internet", "2d-2e20.sym", "r4-2e23.sym", "USA-road-d.NY")
WORKERS = 4
REPS = 4  # visits per input; visits after the first hit the result cache
CALLS = 200  # back-to-back calls per timed hook
REPEATS = 15  # rounds per input; every figure is its best round


def _batch(tag: str) -> list[Query]:
    """Representative serve traffic: one cold execution per input,
    then repeat visits answered by the result cache, and one
    deterministic failure so the recorder's capture path is part of
    the measured loop."""
    queries = [
        Query(input=name, id=f"{name}#{tag}r{r}", scale=SERVICE_SCALE)
        for r in range(REPS)
        for name in INPUTS
    ]
    queries.append(
        Query(
            input="internet",
            id=f"boom#{tag}",
            scale=SERVICE_SCALE,
            n_faults=1,
            check_cadence=0,
            fault_kinds=("kernel-fail",),
            fault_seed=7,
        )
    )
    return queries


def _config(recorder_on: bool, pm_dir: Path) -> ServiceConfig:
    # Production defaults: the point is the cost of the recorder the
    # way it actually ships.
    return ServiceConfig(
        workers=WORKERS, postmortem_dir=str(pm_dir) if recorder_on else None
    )


def _serve(recorder_on: bool, pm_dir: Path, tag: str):
    with MSTService(_config(recorder_on, pm_dir)) as svc:
        return svc.run_batch(_batch(tag))


def test_recorder_off(benchmark, tmp_path):
    outs = benchmark.pedantic(
        lambda: _serve(False, tmp_path, "off"), rounds=3, iterations=1
    )
    assert sum(1 for o in outs if o.ok) == len(INPUTS) * REPS


def test_recorder_on(benchmark, tmp_path):
    outs = benchmark.pedantic(
        lambda: _serve(True, tmp_path / "pm", "on"), rounds=3, iterations=1
    )
    assert sum(1 for o in outs if o.ok) == len(INPUTS) * REPS
    # The seeded fault dropped a postmortem bundle while being timed.
    assert list((tmp_path / "pm").glob("PM_*.bundle"))


def test_recorder_does_not_perturb_results(benchmark, tmp_path):
    """Solver outputs must be bit-identical with the recorder on."""

    def both():
        return _serve(False, tmp_path, "x"), _serve(True, tmp_path / "pm", "x")

    off, on = benchmark.pedantic(both, rounds=1, iterations=1)
    assert [o.id for o in off] == [o.id for o in on]
    for a, b in zip(off, on):
        assert a.replay_identity() == b.replay_identity(), a.id
        assert a.error == b.error, a.id


def _ns_per_call(fn) -> float:
    """Mean nanoseconds per call over ``CALLS`` back-to-back calls."""
    t0 = time.perf_counter_ns()
    for _ in range(CALLS):
        fn()
    return (time.perf_counter_ns() - t0) / CALLS


def measure_per_call(pm_dir: Path) -> dict:
    """Per-query cost of the recorder's two serve-path hooks.

    For one query per input: ``observe_outcome`` on its ok outcome (the
    ring entry every finished query pays; a failed one also writes a
    bundle, which is the incident path and not timed here) and
    ``record_spans`` on its span tree, in ns per call over ``CALLS``
    back-to-back calls.  Each of ``REPEATS`` rounds executes the query
    once and then times both hooks, so host-speed drift hits all three
    alike; every figure is its best round.  ``overhead_ratio`` divides
    the two hooks' sum by the query's own execution wall, so the
    figure resolves well below the 5% target instead of drowning in
    whole-batch scheduling jitter.  ``span_rows_ns`` is the read side:
    flattening the tree into rows, paid per tree only when /debugz or
    a bundle capture reads the ring.
    """
    from repro.graph.io import resolve_input
    from repro.obs.recorder import FlightRecorder, span_rows
    from repro.obs.trace import Tracer
    from repro.service.engine import execute_query

    rec = FlightRecorder(pm_dir)
    rows = {}
    for name in INPUTS:
        graph = resolve_input(name, SERVICE_SCALE)[1]()
        query = Query(input=name, id=f"{name}#micro", scale=SERVICE_SCALE)
        query_ns = observe = spans = read = float("inf")
        for _ in range(REPEATS):
            tracer = Tracer()
            t0 = time.perf_counter_ns()
            out = execute_query(query, graph, tracer=tracer)
            query_ns = min(query_ns, time.perf_counter_ns() - t0)
            assert out.ok, out.error
            root = tracer.roots[0]
            observe = min(observe, _ns_per_call(
                lambda: rec.observe_outcome(out, query=query)
            ))
            spans = min(spans, _ns_per_call(
                lambda: rec.record_spans(query.id, root)
            ))
            read = min(read, _ns_per_call(
                lambda: span_rows([(query.id, root)])
            ))
        rows[name] = {
            "spans": len(tracer.spans()),
            "observe_outcome_ns": round(observe),
            "record_spans_ns": round(spans),
            "span_rows_ns": round(read),
            "query_ns": query_ns,
            "overhead_ratio": (observe + spans) / query_ns,
        }
    return {
        "calls": CALLS,
        "repeats": REPEATS,
        "inputs": rows,
        "overhead_ratio": max(r["overhead_ratio"] for r in rows.values()),
    }


def test_overhead_artifact(benchmark, out_dir, tmp_path):
    result = benchmark.pedantic(
        lambda: measure_per_call(tmp_path), rounds=1, iterations=1
    )
    # Three times the ≤3.3% measured before the hook became O(1)
    # (EXPERIMENTS.md), so a noisy runner still passes while a hook
    # that grew several-fold fails.
    assert result["overhead_ratio"] < 0.10, result
    write_artifact(
        out_dir,
        "recorder_overhead.json",
        json.dumps(result, indent=2, sort_keys=True),
    )
