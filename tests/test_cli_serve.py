"""CLI tests for ``serve`` and ``sweep`` (NDJSON batch interface)."""

import json

import pytest

from repro.cli import main

SCALE = 0.06
# Malformed solver-config values: each must fail its own line as an
# input error, not reach the solver.
BAD_CONFIG_VALUES = (
    ("filter_samples", 0),
    ("filter_samples", -4),
    ("seed", -1),
    ("seed", "x"),
    ("filter_c", float("nan")),
    ("hybrid_threshold", 2.5),
    ("filtering", "no"),
)
# Malformed query fields: each must fail its own line as an input error.
BAD_QUERY_VALUES = (
    ("scale", float("nan")),
    ("scale", float("inf")),
    ("scale", True),
    ("timeout_s", float("nan")),
    ("n_faults", 2.5),
    ("n_faults", True),
    ("verify", "no"),
    ("system", True),
)


def read_ndjson(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


class TestServe:
    def test_good_batch(self, tmp_path, capsys):
        batch = tmp_path / "batch.ndjson"
        batch.write_text(
            "\n".join(
                [
                    json.dumps({"id": "a", "input": "internet", "scale": SCALE}),
                    json.dumps({"id": "b", "input": "internet", "scale": SCALE}),
                    "# a comment line",
                    json.dumps({"id": "c", "input": "2d-2e20.sym", "scale": SCALE}),
                ]
            )
        )
        out = tmp_path / "out.ndjson"
        rc = main(["serve", "--batch", str(batch), "--out", str(out)])
        assert rc == 0
        rows = read_ndjson(out)
        assert [r["id"] for r in rows] == ["a", "b", "c"]
        assert all(r["status"] == "ok" for r in rows)
        # Identical a/b queries: one executes, the other is served from
        # cache (or coalesced), bit-identical.
        assert rows[0]["mst_digest"] == rows[1]["mst_digest"]
        assert rows[0]["total_weight"] == rows[1]["total_weight"]
        assert any(r["cache_hit"] for r in rows[:2])
        err = capsys.readouterr().err
        assert "served 3 queries" in err and "ok 3" in err

    def test_malformed_line_fails_line_not_batch(self, tmp_path, capsys):
        batch = tmp_path / "batch.ndjson"
        batch.write_text(
            "\n".join(
                [
                    json.dumps({"id": "good", "input": "internet", "scale": SCALE}),
                    "this is not json",
                    json.dumps({"id": "bad-field", "input": "internet", "nope": 1}),
                    # Well-formed JSON with a bad value fails its own
                    # line too, whether the value is in the config or not.
                    json.dumps(
                        {
                            "id": "bad-config",
                            "input": "internet",
                            "config": {"filter_threshold": -5},
                        }
                    ),
                    json.dumps(
                        {
                            "id": "bad-engine",
                            "input": "internet",
                            "config": {"engine": "gpu"},
                        }
                    ),
                    json.dumps(
                        {"id": "bad-cadence", "input": "internet", "check_cadence": "x"}
                    ),
                    json.dumps({"id": "no-shards", "input": "internet", "shards": 4}),
                    *(
                        json.dumps(
                            {
                                "id": f"bad-{key}",
                                "input": "internet",
                                "scale": SCALE,
                                "config": {key: value},
                            }
                        )
                        for key, value in BAD_CONFIG_VALUES
                    ),
                    *(
                        json.dumps({"id": f"bad-{key}", "input": "internet", key: value})
                        for key, value in BAD_QUERY_VALUES
                    ),
                ]
            )
        )
        out = tmp_path / "out.ndjson"
        rc = main(["serve", "--batch", str(batch), "--out", str(out)])
        assert rc == 3  # input error, the most severe in this batch
        rows = read_ndjson(out)
        assert len(rows) == 7 + len(BAD_CONFIG_VALUES) + len(BAD_QUERY_VALUES)
        assert rows[0]["status"] == "ok"
        assert all(r["status"] == "error" for r in rows[1:])
        assert all(r["error_kind"] == "input" for r in rows[1:])
        assert "line 2" in rows[1]["error"]
        assert "unknown field" in rows[2]["error"]
        assert "filter_threshold" in rows[3]["error"]
        assert "engine" in rows[4]["error"]
        assert "check_cadence" in rows[5]["error"]
        assert "unknown field 'shards'" in rows[6]["error"]
        for (key, _), row in zip(BAD_CONFIG_VALUES + BAD_QUERY_VALUES, rows[7:]):
            assert key in row["error"], row

    def test_unknown_code_fails_line_not_batch(self, tmp_path):
        batch = tmp_path / "batch.ndjson"
        batch.write_text(
            "\n".join(
                json.dumps({"id": qid, "input": "internet", "scale": SCALE, "code": code})
                for qid, code in (("good", "ECL-MST"), ("bad", "WarpDrive"), ("base", "qKruskal"))
            )
        )
        out = tmp_path / "out.ndjson"
        assert main(["serve", "--batch", str(batch), "--out", str(out)]) == 3
        good, bad, base = read_ndjson(out)
        assert good["status"] == base["status"] == "ok"
        assert (bad["status"], bad["error_kind"]) == ("error", "input")
        assert "line 2" in bad["error"] and "unknown code 'WarpDrive'" in bad["error"]

    def test_fault_exit_code_wins(self, tmp_path):
        batch = tmp_path / "batch.ndjson"
        batch.write_text(
            "\n".join(
                [
                    "not json either",
                    json.dumps(
                        {
                            "id": "chaos",
                            "input": "internet",
                            "scale": SCALE,
                            "n_faults": 2,
                            "fault_seed": 3,
                            "fault_kinds": ["kernel-fail"],
                        }
                    ),
                ]
            )
        )
        out = tmp_path / "out.ndjson"
        rc = main(["serve", "--batch", str(batch), "--out", str(out)])
        assert rc == 5  # unrecovered fault outranks input error
        rows = read_ndjson(out)
        assert {r["exit_code"] for r in rows} == {3, 5}

    def test_missing_batch_file(self, tmp_path, capsys):
        rc = main(["serve", "--batch", str(tmp_path / "nope.ndjson")])
        assert rc == 3
        assert "cannot read batch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--queue-depth", "0"],
            ["--slowdown", "0.5"],
            ["--admission-burst", "0"],
        ],
    )
    def test_rejected_flag_value_is_a_usage_error(self, tmp_path, capsys, flags):
        batch = tmp_path / "b.ndjson"
        batch.write_text(json.dumps({"id": "x", "input": "internet", "scale": SCALE}))
        assert main(["serve", "--batch", str(batch), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: serve: ")
        assert len(captured.err.splitlines()) == 1

    def test_stdin_batch(self, tmp_path, capsys, monkeypatch):
        import io

        line = json.dumps({"id": "s", "input": "internet", "scale": SCALE})
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        rc = main(["serve", "--batch", "-", "--out", str(tmp_path / "o.ndjson")])
        assert rc == 0

    def test_stdout_ndjson(self, capsys, tmp_path):
        batch = tmp_path / "b.ndjson"
        batch.write_text(json.dumps({"id": "x", "input": "internet", "scale": SCALE}))
        assert main(["serve", "--batch", str(batch)]) == 0
        out = capsys.readouterr().out
        row = json.loads(out.splitlines()[0])
        assert row["id"] == "x" and row["status"] == "ok"


class TestSweep:
    def test_sweep_two_inputs_warm_hits(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "internet,2d-2e20.sym",
                "--scale",
                str(SCALE),
                "--repeat",
                "2",
                "--out",
                str(tmp_path / "sweep.ndjson"),
            ]
        )
        assert rc == 0
        rows = read_ndjson(tmp_path / "sweep.ndjson")
        # --repeat 2 = one cold pass + one warm pass over both inputs
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        warm = rows[2:]
        assert all(r["cache_hit"] for r in warm)
        out = capsys.readouterr().out
        assert "== cold pass ==" in out
        assert "warm passes" in out
        assert "warm/cold throughput" in out

    def test_sweep_unknown_input(self, capsys):
        rc = main(["sweep", "atlantis", "--scale", str(SCALE)])
        assert rc == 3
        assert "unknown suite input" in capsys.readouterr().err
