"""Table 5 / Figure 5 — the cumulative de-optimization study.

Benchmarks every de-optimized configuration on one input, checks the
headline deltas' directions, and regenerates both artifacts (runtimes
table + throughput series) on the single-component inputs.
"""

import pytest

from repro.bench.experiments import exp_deopt
from repro.core.config import DEOPT_STAGE_NAMES, DEOPT_STAGES, deopt_stages
from repro.core.eclmst import ecl_mst
from repro.bench.harness import SYSTEM2, geomean
from repro.generators import suite as suite_mod

from _artifacts import write_artifact


@pytest.mark.parametrize("stage", DEOPT_STAGE_NAMES)
def test_stage_runtime(benchmark, stage, suite_graphs):
    g = suite_graphs["r4-2e23.sym"]
    r = benchmark(lambda: ecl_mst(g, DEOPT_STAGES[stage], gpu=SYSTEM2.gpu))
    assert r.num_mst_edges == g.num_vertices - 1


def test_deopt_geomean_shape(suite_graphs):
    """Fully de-optimized must be several times slower than ECL-MST
    (the paper reports 8x; shape, not the exact factor)."""
    mst_inputs = [
        n for n in suite_graphs if suite_mod.SUITE[n].single_component
    ]
    gms = {}
    for name, cfg in deopt_stages():
        gms[name] = geomean(
            [
                ecl_mst(suite_graphs[g], cfg, gpu=SYSTEM2.gpu).modeled_seconds
                for g in mst_inputs
            ]
        )
    full = gms["ECL-MST"]
    assert gms["Vertex-Centric"] > 3 * full
    assert gms["No Atomic Guards"] >= full
    # The paper's one counter-intuitive step: going topology-driven
    # *reduces* runtime relative to the (by then heavily de-optimized)
    # data-driven version.
    assert gms["Topology-Driven"] < gms["No Tuples"] * 1.35


def test_table5_artifact(benchmark, bench_scale, out_dir):
    out = benchmark.pedantic(
        lambda: exp_deopt(bench_scale), rounds=1, iterations=1
    )
    assert "Vertex-Centric" in out
    write_artifact(out_dir, "table5_deopt.txt", out)


def test_fig5_artifact(benchmark, bench_scale, out_dir):
    out = benchmark.pedantic(
        lambda: exp_deopt(bench_scale, as_figure=True), rounds=1, iterations=1
    )
    assert out.startswith("input,")
    write_artifact(out_dir, "fig5_deopt_throughput.csv", out)
