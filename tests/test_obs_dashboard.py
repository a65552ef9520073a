"""The static HTML run dashboard."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.eclmst import ecl_mst
from repro.errors import EXIT_INPUT_ERROR
from repro.generators.random_graphs import erdos_renyi
from repro.obs.dashboard import render_dashboard
from repro.obs.profile import RunProfile
from repro.obs.trace import Tracer


@pytest.fixture(scope="module")
def profile() -> dict:
    g = erdos_renyi(400, 2000, seed=9)
    tracer = Tracer()
    result = ecl_mst(g, tracer=tracer)
    return RunProfile.from_result(result, tracer=tracer).to_dict()


class TestRenderDashboard:
    def test_renders_core_cards(self, profile):
        html = render_dashboard(profile)
        assert html.lstrip().startswith("<!DOCTYPE html")
        assert "<svg" in html
        assert "modeled time" in html
        assert "MST weight" in html
        # Kernel names from the profile appear in the share chart.
        for kernel in list(profile["kernels"])[:2]:
            assert kernel in html
        # The accessibility relief: a data table mirrors the timeline.
        assert "<table" in html
        assert "round" in html.lower()

    def test_self_contained_no_external_assets(self, profile):
        html = render_dashboard(profile)
        for needle in ("http://", "https://", "<link", "src="):
            assert needle not in html, f"external reference: {needle}"

    def test_round_log_drives_timeline(self, profile):
        assert profile["round_log"], "profile should carry round_log"
        html = render_dashboard(profile)
        assert "polyline" in html
        assert "data-tip" in html  # hover layer present

    def test_tolerates_pre_telemetry_profile(self, profile):
        old = dict(profile)
        old.pop("round_log", None)
        html = render_dashboard(old)
        assert "<svg" in html  # kernel chart still renders

    def test_title_override_and_escaping(self, profile):
        html = render_dashboard(profile, title="<b>run & fun</b>")
        assert "<b>run" not in html
        assert "&lt;b&gt;run &amp; fun&lt;/b&gt;" in html

    def test_dark_mode_is_selected_not_flipped(self, profile):
        html = render_dashboard(profile)
        assert "prefers-color-scheme: dark" in html


class TestDashboardCLI:
    def test_profile_round_trip(self, tmp_path, profile, capsys):
        src = tmp_path / "prof.json"
        src.write_text(json.dumps(profile))
        out = tmp_path / "dash.html"
        rc = main(
            ["dashboard", "--profile", str(src), "--out", str(out)]
        )
        assert rc == 0
        assert "dashboard written to" in capsys.readouterr().out
        html = out.read_text()
        assert "<svg" in html

    def test_missing_profile_is_input_error(self, tmp_path, capsys):
        rc = main(
            ["dashboard", "--profile", str(tmp_path / "missing.json")]
        )
        assert rc == EXIT_INPUT_ERROR
        assert "input error" in capsys.readouterr().err

    def test_no_input_no_profile_is_input_error(self, capsys):
        rc = main(["dashboard"])
        assert rc == EXIT_INPUT_ERROR
        assert "input error" in capsys.readouterr().err
