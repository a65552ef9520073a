"""CLI subcommand tests (run/codes/inputs/convert/mst/artifact)."""

import pytest

from repro.cli import main

SCALE = "0.06"


class TestRun:
    def test_run_ecl(self, capsys):
        assert main(["run", "ECL-MST", "internet", "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        assert "edges=" in out and "Medges/s" in out

    def test_run_nc(self, capsys):
        assert main(["run", "Jucele GPU", "rmat16.sym", "--scale", SCALE]) == 1
        assert "NC" in capsys.readouterr().out

    def test_run_unknown_code(self, capsys):
        assert main(["run", "WarpDrive", "internet", "--scale", SCALE]) == 2

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

    def test_convert_unknown_format(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["convert", str(tmp_path / "x.bin"), str(tmp_path / "y.ecl")])

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


class TestBadInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mst", "nosuch"],
            ["chaos", "nosuch", "--faults", "1"],
            ["trace", "nosuch"],
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
