"""CLI tests for ``profile``: run profiles and their span traces."""

import json

import pytest

from repro.cli import main

SCALE = "0.06"


class TestTrace:
    """The span trace ``profile --format chrome|ndjson`` emits."""

    def test_chrome_output(self, capsys):
        assert (
            main(["profile", "internet", "--scale", SCALE, "--format", "chrome"])
            == 0
        )
        events = json.loads(capsys.readouterr().out)
        assert isinstance(events, list) and events
        for e in events:
            assert {"ph", "ts", "name"} <= set(e)
        # The root query event's interval holds every other event, and
        # the `run` host span (the root's last child) every event of
        # the solver run under it.
        root = events[0]
        assert root["name"] == "query internet" and root["dur"] > 0
        i = next(i for i, e in enumerate(events) if e["name"] == "run")
        for outer, inner in ((root, events[1:]), (events[i], events[i + 1:])):
            assert inner
            for e in inner:
                assert outer["ts"] <= e["ts"]
                assert e["ts"] + e["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_ndjson_output(self, capsys):
        assert (
            main(["profile", "internet", "--scale", SCALE, "--format", "ndjson"])
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert all("name" in r for r in records)
        assert all(r["modeled_seconds"] is not None for r in records)
        # The service's query tree: `query <id>` over the two host spans.
        root = records[0]
        assert (root["kind"], root["name"], root["parent_id"]) == (
            "service", "query internet", None
        )
        children = [
            (r["kind"], r["name"]) for r in records if r["parent_id"] == root["id"]
        ]
        assert children == [("host", "load input"), ("host", "run")]
        run = next(r for r in records if r["name"] == "run")
        assert root["modeled_seconds"] == run["modeled_seconds"] > 0

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        argv = ["profile", "internet", "--scale", SCALE, "--format", "chrome"]
        assert main([*argv, "--out", str(path)]) == 0
        assert isinstance(json.loads(path.read_text()), list)

    def test_traced_baseline_code(self, capsys):
        assert (
            main(
                ["profile", "internet", "--scale", SCALE, "--format", "chrome",
                 "--code", "Jucele GPU"]
            )
            == 0
        )
        events = json.loads(capsys.readouterr().out)
        assert any(e["cat"] == "round" for e in events)


class TestProfile:
    def _profile(self, capsys, *extra):
        assert main(["profile", "internet", "--scale", SCALE, *extra]) == 0
        return json.loads(capsys.readouterr().out)

    def test_json_profile_sums(self, capsys):
        p = self._profile(capsys)
        assert p["schema"].startswith("repro.obs.profile/")
        total = sum(b["seconds"] for b in p["kernels"].values())
        assert abs(total - p["modeled_seconds"]) <= 1e-9
        assert p["graph"]["name"] == "internet"
        assert p["metrics"]["run.rounds"] == p["rounds"]

    def test_deopt_stage_flag(self, capsys):
        p = self._profile(capsys, "--stage", "No Atomic Guards")
        assert p["config"]["atomic_guards"] is False
        assert p["metrics"]["atomics.elided"] == 0

    def test_unknown_stage_errors(self):
        with pytest.raises(SystemExit):
            main(
                ["profile", "internet", "--scale", SCALE, "--stage", "bogus"]
            )

    @pytest.mark.parametrize("verb", ["profile", "dashboard"])
    def test_unknown_code_is_an_input_error(self, verb, capsys, tmp_path):
        argv = [verb, "internet", "--scale", SCALE, "--code", "Bogus"]
        if verb == "dashboard":
            argv += ["--out", str(tmp_path / "dash.html")]
        assert main(argv) == 3
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("input error:") and "'Bogus'" in line

    def test_stage_with_a_baseline_code_is_an_input_error(self, capsys):
        argv = ["profile", "internet", "--scale", SCALE,
                "--code", "Jucele GPU", "--stage", "No Filter"]
        assert main(argv) == 3
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("input error:") and "only to ECL-MST" in line

    def test_baseline_diff(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        assert (
            main(["profile", "internet", "--scale", SCALE, "--out", str(base)])
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "profile",
                    "internet",
                    "--scale",
                    SCALE,
                    "--stage",
                    "No Atomic Guards",
                    "--baseline",
                    str(base),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["comparable"] is True
        assert payload["entries"]["atomics.elided"]["b"] == 0

    def test_text_format(self, capsys):
        assert (
            main(
                ["profile", "internet", "--scale", SCALE, "--format", "text"]
            )
            == 0
        )
        assert "ms modeled" in capsys.readouterr().out

    def test_chrome_format(self, capsys):
        assert (
            main(
                ["profile", "internet", "--scale", SCALE, "--format", "chrome"]
            )
            == 0
        )
        events = json.loads(capsys.readouterr().out)
        assert all(e["ph"] == "X" for e in events)
