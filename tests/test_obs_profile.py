"""Run profile tests: metrics, serialization, and the golden de-opt diff."""

import json

import pytest

from repro.core.config import DEOPT_STAGES, EclMstConfig
from repro.core.eclmst import ecl_mst
from repro.obs import (
    RunProfile,
    collect_result_metrics,
    diff,
    graph_fingerprint,
    metric_direction,
)


class TestMetrics:
    def test_flat_scalar_dict(self, medium_graph):
        m = collect_result_metrics(ecl_mst(medium_graph))
        assert m  # non-empty
        for key, value in m.items():
            assert isinstance(key, str)
            assert isinstance(value, (int, float)), key

    def test_standard_names(self, medium_graph):
        m = collect_result_metrics(ecl_mst(medium_graph))
        for key in (
            "run.rounds",
            "kernel.launches",
            "atomics.executed",
            "atomics.elided",
            "dsu.find_jumps",
            "memory.bytes_per_edge",
            "worklist.shrink_rate.count",
            "dsu.find_jump_depth.count",
            "seconds.k1_reserve",
        ):
            assert key in m, key

    def test_consistency_with_counters(self, medium_graph):
        r = ecl_mst(medium_graph)
        m = collect_result_metrics(r)
        assert m["run.rounds"] == r.rounds
        assert m["kernel.launches"] == r.counters.num_launches
        assert m["atomics.executed"] == r.counters.total("atomics")

    def test_registry_type_conflict(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(TypeError):
            reg.gauge("x")


class TestRunProfile:
    def test_kernel_breakdown_sums_to_total(self, medium_graph):
        r = ecl_mst(medium_graph)
        p = RunProfile.from_result(r)
        total = sum(b.seconds for b in p.kernels.values())
        assert abs(total - r.counters.total_seconds) <= 1e-9

    def test_fingerprint_stability(self, medium_graph):
        a = graph_fingerprint(medium_graph)
        b = graph_fingerprint(medium_graph)
        assert a == b
        assert a["vertices"] == medium_graph.num_vertices

    def test_fingerprint_distinguishes_graphs(self, triangle, star_graph):
        assert (
            graph_fingerprint(triangle)["digest"]
            != graph_fingerprint(star_graph)["digest"]
        )

    def test_json_round_trip(self, medium_graph, tmp_path):
        p = RunProfile.from_result(ecl_mst(medium_graph))
        text = p.to_json()
        json.loads(text)  # valid JSON
        q = RunProfile.from_json(text)
        assert q.to_dict() == p.to_dict()
        path = tmp_path / "profile.json"
        p.save(str(path))
        assert RunProfile.load(str(path)).to_dict() == p.to_dict()

    def test_config_captured(self, medium_graph):
        p = RunProfile.from_result(
            ecl_mst(medium_graph, EclMstConfig(atomic_guards=False))
        )
        assert p.config["atomic_guards"] is False
        assert p.algorithm == "ecl-mst"

    def test_render_mentions_hot_kernels(self, medium_graph):
        p = RunProfile.from_result(ecl_mst(medium_graph))
        text = p.render()
        assert "k1_reserve" in text and "ms modeled" in text

    def test_baseline_runner_profile(self):
        """Profiles work for any runner, not just ECL-MST."""
        from repro.baselines.jucele import jucele_mst
        from repro.generators import grid2d

        r = jucele_mst(grid2d(8, seed=1))
        p = RunProfile.from_result(r)
        total = sum(b.seconds for b in p.kernels.values())
        assert abs(total - r.counters.total_seconds) <= 1e-9
        assert p.config == {}  # baselines have no EclMstConfig


class TestProfileDiff:
    def test_golden_deopt_diff(self, medium_graph):
        """Table-5 grid: removing the atomic guards must show up as the
        elided-atomics metric collapsing to zero and executed atomics
        rising — the profile diff is how the regression is attributed."""
        a = RunProfile.from_result(ecl_mst(medium_graph, DEOPT_STAGES["ECL-MST"]))
        b = RunProfile.from_result(
            ecl_mst(medium_graph, DEOPT_STAGES["No Atomic Guards"])
        )
        d = diff(a, b)
        assert d.comparable  # same graph fingerprint
        assert a.metrics["atomics.elided"] > 0
        elided = d.entries["atomics.elided"]
        assert elided["b"] == 0 and elided["delta"] == -elided["a"]
        executed = d.entries["atomics.executed"]
        assert executed["delta"] > 0
        # Same MSF either way — the de-opt only changes the cost.
        assert d.entries["run.total_weight"]["delta"] == 0
        assert d.entries["run.mst_edges"]["delta"] == 0

    def test_incomparable_flag(self, triangle, star_graph):
        a = RunProfile.from_result(ecl_mst(triangle))
        b = RunProfile.from_result(ecl_mst(star_graph))
        d = diff(a, b)
        assert not d.comparable
        assert "WARNING" in d.render()

    def test_diff_json(self, medium_graph):
        p = RunProfile.from_result(ecl_mst(medium_graph))
        d = diff(p, p)
        payload = json.loads(d.to_json())
        assert payload["comparable"] is True
        for e in payload["entries"].values():
            assert e["delta"] == 0
            assert e["direction"] in ("lower", "higher", "exact", "info")

    def test_save_load_diff_self_is_clean(self, medium_graph, tmp_path):
        """The exporter round trip is lossless: a profile diffed against
        its own save→load copy moves no metric."""
        p = RunProfile.from_result(ecl_mst(medium_graph))
        path = tmp_path / "p.json"
        p.save(str(path))
        d = diff(RunProfile.load(str(path)), p)
        assert d.comparable
        assert all(e["delta"] == 0 for e in d.entries.values())


class TestDirectionRegistry:
    def test_directions(self):
        assert metric_direction("seconds.k1_reserve") == "lower"
        assert metric_direction("atomics.elided") == "higher"
        assert metric_direction("filter.edges_elided") == "higher"
        assert metric_direction("run.total_weight") == "exact"
        assert metric_direction("filter.threshold") == "info"
