"""Tests for run-level bound shares and the one-command report."""

import pytest

from repro.core.config import EclMstConfig
from repro.core.eclmst import ecl_mst
from repro.gpusim.costmodel import gpu_kernel_seconds
from repro.gpusim.counters import KernelCounters, RunCounters
from repro.gpusim.spec import RTX_3080_TI
from repro.obs.roofline import launch_shares, roofline_report


def bound_of(**kw) -> str:
    """The largest roofline share of one launch priced like
    ``Device.launch`` would price it."""
    k = KernelCounters("k", **kw)
    k.modeled_seconds = gpu_kernel_seconds(RTX_3080_TI, k)
    shares = launch_shares(RTX_3080_TI, k)
    return max(shares, key=shares.get)


def run_shares(counters: RunCounters) -> dict[str, float]:
    """Fraction of a run's modeled time under each bound (empty for a
    run without launches)."""
    report = roofline_report(counters, RTX_3080_TI)
    out: dict[str, float] = {}
    for k in report.kernels:
        for bound, secs in k.shares.items():
            out[bound] = out.get(bound, 0.0) + secs / report.total_seconds
    return out


class TestClassifier:
    def test_memory_bound_kernel(self):
        assert bound_of(bytes=1e9) == "memory"

    def test_compute_bound_kernel(self):
        assert bound_of(cycles=1e12) == "compute"

    def test_atomic_bound_kernel(self):
        assert bound_of(atomics=10**9) == "atomic"

    def test_critical_path_bound(self):
        assert bound_of(critical_items=10**8) == "serial"

    def test_launch_bound_when_empty(self):
        assert bound_of() == "launch"

    def test_shares_sum_to_one(self, medium_graph):
        shares = run_shares(ecl_mst(medium_graph).counters)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_ecl_is_mostly_memory_bound(self):
        # The full-size paper code is bandwidth-limited; so is ours at
        # a non-trivial scale.
        from repro.generators import suite

        g = suite.build("r4-2e23.sym", scale=0.5)
        assert run_shares(ecl_mst(g).counters)["memory"] > 0.5

    def test_empty_run(self):
        assert run_shares(RunCounters()) == {}

    def test_unguarded_atomics_shift_the_bound(self):
        from repro.generators import suite

        g = suite.build("coPapersDBLP", scale=0.3)
        guarded = run_shares(ecl_mst(g).counters)["atomic"]
        unguarded = run_shares(
            ecl_mst(g, EclMstConfig(atomic_guards=False)).counters
        )["atomic"]
        assert unguarded >= guarded


@pytest.mark.slow
class TestReport:
    def test_generate_report_structure(self, tmp_path):
        from repro.bench.report import generate_report

        out_file = tmp_path / "report.md"
        text = generate_report(out_file, scale=0.06)
        assert out_file.exists()
        assert "# Reproduction report" in text
        assert "System 1" in text and "System 2" in text
        assert "De-optimization ladder" in text
        assert "Pearson correlation" in text
        # The dominance flag is present; at this test's tiny scale a
        # baseline can win a micro-input, so only the full-scale run
        # (EXPERIMENTS.md, bench_fig4) asserts "yes".
        assert "fastest on every input:" in text

    def test_cli_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.md"
        assert main(["report", "--out", str(out), "--scale", "0.06"]) == 0
        assert out.exists()
        assert "report written" in capsys.readouterr().out
