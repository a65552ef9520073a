"""Benchmark-side tests: small-scale smoke runs of every workload, exact
count repeatability, the independent reference and the trace checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import run

run._load_program()

from perfbench import metrics  # noqa: E402
from perfbench.probe import NOMINAL_MS, HostSpeed  # noqa: E402
from perfbench.reference import msf_reference  # noqa: E402
from perfbench.trace import Span, SpanRecorder, TraceError, analyze, instrument  # noqa: E402

# Small sizes that keep every declared span firing.
SMALL = {
    "pipeline-road": {"scale": 0.5, "inputs": 2},
    "solve-rmat": {"scale": 1.0, "graphs": 2, "filter_seeds": 2},
    "serve-batch": {"exact_prefix": 64},
}
EXACT = ("core.rounds", "core.worklist_entries", "core.union_yield",
         "gpusim.launches", "gpusim.atomics", "gpusim.find_jumps", "gpusim.bytes_mb",
         *(f"gpusim.{k}.modeled_us" for k in metrics.KERNELS))


def _run(name, trace, seed=7):
    return run.run_workload(name, seed, 0.0, trace, **SMALL[name])


@pytest.mark.parametrize("name", list(SMALL))
def test_workload_smoke(name):
    decl = run.declared()
    plain = _run(name, False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    run.with_units(plain["metrics"], decl["end_to_end"])
    assert all(v > 0 for v in plain["metrics"].values())
    traced = _run(name, True)  # raises if a declared span never fired
    assert traced["correct"]
    run.with_units(traced["metrics"], decl["per_layer"])


@pytest.mark.parametrize("name", ["pipeline-road", "solve-rmat"])
def test_exact_counts_repeat(name):
    a, b = _run(name, True)["metrics"], _run(name, True)["metrics"]
    assert {k: a[k] for k in EXACT} == {k: b[k] for k in EXACT}
    assert a["core.rounds"] > 0


@pytest.mark.parametrize("name", list(SMALL))
def test_modeled_meps_repeats_and_follows_seed(name):
    first = _run(name, False)["metrics"]["modeled_meps"]
    assert _run(name, False)["metrics"]["modeled_meps"] == first
    assert _run(name, False, seed=8)["metrics"]["modeled_meps"] != first


def test_reference_matches_program_reference():
    from repro.core.verify import reference_mst_mask
    from repro.generators import suite

    for name in ("rmat16.sym", "USA-road-d.NY", "kron_g500-logn21", "2d-2e20.sym"):
        g = suite.build(name, scale=0.1, seed=3)
        ref = msf_reference(g)
        assert np.array_equal(ref.mask, reference_mst_mask(g))


def test_reference_rejects_parallel_edges():
    # Two copies of edge (0, 1) in a 2-vertex CSR.
    g = SimpleNamespace(
        name="dup",
        row_ptr=np.array([0, 2, 4]),
        col_idx=np.array([1, 1, 0, 0]),
        weights=np.array([5, 6, 5, 6]),
        edge_ids=np.array([0, 1, 0, 1]),
    )
    with pytest.raises(ValueError, match="duplicate"):
        msf_reference(g)


def test_host_speed_scales_by_the_probes_around_an_interval():
    host = HostSpeed(warm=0)
    host.probes = [NOMINAL_MS, 2 * NOMINAL_MS, 2 * NOMINAL_MS]
    assert host.scale(0) == pytest.approx(2 / 3)
    assert host.scale(1) == pytest.approx(1 / 2)
    host.mark()
    assert len(host.probes) == 4 and host.probes[-1] > 0


def test_hooks_are_removed_after_the_traced_run():
    from repro.core import eclmst, kernels

    before = (eclmst.kernel1_reserve, kernels.MstState.__dict__["create"])
    with instrument(SpanRecorder()):
        assert eclmst.kernel1_reserve is not before[0]
    assert (eclmst.kernel1_reserve, kernels.MstState.__dict__["create"]) == before


def test_analyze_rejects_overlapping_children():
    spans = [Span(0, "p", 1, -1, 0.0, 1.0), Span(1, "a", 1, 0, 0.1, 0.6),
             Span(2, "b", 1, 0, 0.5, 0.9)]
    with pytest.raises(TraceError, match="overlaps"):
        analyze(spans)


def test_analyze_self_plus_children_is_parent():
    spans = [Span(0, "p", 1, -1, 0.0, 1.0), Span(1, "a", 1, 0, 0.1, 0.4),
             Span(2, "b", 1, 0, 0.5, 0.9)]
    table = analyze(spans)
    assert table.self_time["p"] == pytest.approx(0.3)
    assert table.calls == {"p": 1, "a": 1, "b": 1}


def test_fails_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-rmat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
