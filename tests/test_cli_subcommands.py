"""CLI subcommand tests (run/codes/inputs/convert/mst/artifact)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

SCALE = "0.06"


class TestRun:
    def test_run_ecl(self, capsys):
        assert main(["run", "ECL-MST", "internet", "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        assert "edges=" in out and "Medges/s" in out

    def test_run_nc(self, capsys):
        assert main(["run", "Jucele GPU", "rmat16.sym", "--scale", SCALE]) == 1
        assert capsys.readouterr().err.startswith("NC: rmat16.sym has 2 components")

    def test_run_unknown_code(self, capsys):
        assert main(["run", "WarpDrive", "internet", "--scale", SCALE]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "unknown code 'WarpDrive'" in err
        assert len(err.splitlines()) == 1

    def test_run_unknown_code_does_not_touch_input(self, capsys, monkeypatch):
        # The code is checked when the query is built, so the input is
        # never opened or built.
        from repro.service import engine

        def no_input(query):
            raise AssertionError("input resolved for an unknown code")

        monkeypatch.setattr(engine, "_graph_source", no_input)
        assert main(["run", "WarpDrive", "/no/such/file.gr"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("input error: ") and "unknown code 'WarpDrive'" in line

    def test_run_system1(self, capsys):
        assert (
            main(["run", "ECL-MST", "internet", "--system", "1", "--scale", SCALE])
            == 0
        )
        assert "Titan V" in capsys.readouterr().out


class TestListing:
    def test_codes(self, capsys):
        assert main(["codes"]) == 0
        out = capsys.readouterr().out
        assert "ECL-MST" in out and "Setia Prim" in out and "MST-only" in out

    def test_inputs(self, capsys):
        assert main(["inputs", "--scale", SCALE]) == 0
        assert "kron_g500-logn21" in capsys.readouterr().out


class TestConvertAndMst:
    def test_convert_roundtrip(self, tmp_path, capsys):
        from repro.generators import grid2d
        from repro.graph.io import save_ecl

        src = tmp_path / "g.ecl"
        save_ecl(grid2d(6, seed=1), src)
        dst = tmp_path / "g.gr"
        assert main(["convert", str(src), str(dst)]) == 0
        assert dst.exists()
        back = tmp_path / "g2.graph"
        assert main(["convert", str(dst), str(back)]) == 0
        assert "converted" in capsys.readouterr().out

    def test_convert_unknown_format(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "x.bin"), str(tmp_path / "y.ecl")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "unknown graph format '.bin'" in err
        assert len(err.splitlines()) == 1

    def test_mst_command(self, tmp_path, capsys):
        from repro.generators import road_network
        from repro.graph.io import save_ecl

        src = tmp_path / "r.ecl"
        save_ecl(road_network(120, seed=2), src)
        out = tmp_path / "mst.txt"
        assert main(["mst", str(src), "--out", str(out), "--verify"]) == 0
        text = out.read_text()
        assert text.startswith("# MSF")
        assert len(text.splitlines()) == 120  # header + 119 edges

    def test_mst_reads_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1 5\n1 2 2\n0 2 9\n")
        assert main(["mst", str(path)]) == 0
        assert "weight 7" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "suffix, text",
        [
            (".gr", "p sp 3 3\na 1 2 5\na 2 3 2\na 1 3 9\n"),
            (".graph", "3 3 1\n2 5 3 9\n1 5 3 2\n1 9 2 2\n"),
            (".txt", "0 1 5\n1 2 2\n0 2 9\n"),
        ],
        ids=["gr", "graph", "txt"],
    )
    def test_mst_out_names_the_file(self, tmp_path, capsys, suffix, text):
        path = tmp_path / f"tri{suffix}"
        path.write_text(text)
        out = tmp_path / "mst.txt"
        assert main(["mst", str(path), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "# MSF of tri: weight 7"

    @pytest.mark.parametrize("fmt", ["dimacs", "metis", "edge-list"])
    def test_streams_keep_their_format_name(self, fmt):
        import io

        from repro.graph.formats import load_dimacs, load_metis
        from repro.graph.io import load_edge_list

        load, text = {
            "dimacs": (load_dimacs, "p sp 2 1\na 1 2 7\n"),
            "metis": (load_metis, "2 1\n2\n1\n"),
            "edge-list": (load_edge_list, "0 1 7\n"),
        }[fmt]
        assert load(io.StringIO(text)).name == fmt
        assert load(io.StringIO(text), name="roads").name == "roads"


class TestBadInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mst", "nosuch"],
            ["chaos", "nosuch", "--faults", "1"],
            ["profile", "nosuch"],
            ["run", "ECL-MST", "nosuch"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unknown_input_is_an_input_error(self, argv, capsys):
        assert main([*argv, "--scale", SCALE]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: unknown input 'nosuch'")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, code, prefix",
        [
            (["mst", "{metis}"], 3, "input error: {metis}: edge count mismatch"),
            (["run", "ECL-MST", "{gr}"], 3, "input error: {gr}:2: vertex 9 out of range"),
            (["convert", "{metis}", "{tmp}/out.ecl"], 3, "input error: {metis}: edge"),
            (["profile", "{txt}"], 3, "input error: {txt}:2: not UTF-8"),
            (["chaos", "{gr}", "--faults", "1"], 3, "input error: {gr}:2: vertex 9"),
            (["serve", "--batch", "{txt}"], 3, "input error: {txt}:2: not UTF-8"),
            (["run", "Jucele GPU", "rmat16.sym"], 1, "NC: rmat16.sym has 2"),
            (["profile", "rmat16.sym", "--code", "Jucele GPU"], 1, "NC: rmat16.sym"),
        ],
        ids=[
            "mst-metis",
            "run-gr",
            "convert-metis",
            "profile-txt",
            "chaos-gr",
            "serve-batch",
            "run-nc",
            "profile-nc",
        ],
    )
    def test_bad_file_is_one_typed_line(self, tmp_path, argv, code, prefix):
        from test_formats import truncated_internet_metis

        files = {
            "metis": truncated_internet_metis(tmp_path),
            "gr": tmp_path / "oor.gr",
            "txt": tmp_path / "bad.txt",
            "tmp": tmp_path,
        }
        files["gr"].write_text("p sp 3 1\na 1 9 5\n")
        files["txt"].write_bytes(b"0 1 3\n1 2 \xff\n")
        argv = [a.format(**files) for a in argv]
        if argv[0] not in ("convert", "serve"):
            argv += ["--scale", SCALE]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(prefix.format(**files)), proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0", "-1", "1e-400"])
    def test_bad_scale_is_a_usage_error(self, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mst", "rmat22.sym", f"--scale={scale}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scale" in err and "positive, finite" in err


class TestBackCompat:
    def test_bare_experiment_key(self, capsys):
        assert main(["table2", "--scale", SCALE]) == 0
        assert "Graph Name" in capsys.readouterr().out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 2


@pytest.mark.slow
class TestArtifactCommand:
    def test_full_workflow(self, tmp_path, capsys):
        assert main(["artifact", str(tmp_path / "af"), "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        assert "MST GeoMean" in out
        assert (tmp_path / "af" / "ecl_mst_out.csv").exists()
        assert (tmp_path / "af" / "inputs").is_dir()
