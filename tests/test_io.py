"""IO round-trip and format tests."""

import io

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.generators import random_k_out
from repro.graph.io import load_ecl, load_edge_list, save_ecl, save_edge_list
from repro.graph.weights import WEIGHT_BOUND


class TestEclBinary:
    def test_roundtrip_identical(self, tmp_path, medium_graph):
        path = tmp_path / "g.ecl"
        save_ecl(medium_graph, path)
        back = load_ecl(path)
        assert back.num_vertices == medium_graph.num_vertices
        assert np.array_equal(back.row_ptr, medium_graph.row_ptr)
        assert np.array_equal(back.col_idx, medium_graph.col_idx)
        assert np.array_equal(back.weights, medium_graph.weights)
        assert np.array_equal(back.edge_ids, medium_graph.edge_ids)

    def test_name_from_stem(self, tmp_path, triangle):
        path = tmp_path / "mygraph.ecl"
        save_ecl(triangle, path)
        assert load_ecl(path).name == "mygraph"

    def test_explicit_name(self, tmp_path, triangle):
        path = tmp_path / "x.ecl"
        save_ecl(triangle, path)
        assert load_ecl(path, name="other").name == "other"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ecl"
        path.write_bytes(b"NOTAGRAPH")
        with pytest.raises(ValueError, match="not an ECL graph"):
            load_ecl(path)

    def test_mst_weight_survives_roundtrip(self, tmp_path):
        from repro.core.verify import reference_mst_mask

        g = random_k_out(150, 3, seed=9)
        path = tmp_path / "r.ecl"
        save_ecl(g, path)
        back = load_ecl(path)
        assert np.array_equal(
            reference_mst_mask(g), reference_mst_mask(back)
        )


class TestEdgeList:
    def test_roundtrip(self, tmp_path, triangle):
        path = tmp_path / "g.txt"
        save_edge_list(triangle, path)
        back = load_edge_list(path)
        assert back.num_edges == triangle.num_edges
        assert np.array_equal(back.weights, triangle.weights)

    def test_comments_and_blank_lines(self):
        text = io.StringIO("# comment\n\n0 1 5\n1 2 6\n")
        g = load_edge_list(text)
        assert g.num_edges == 2
        assert g.num_vertices == 3

    def test_missing_weight_defaults_to_one(self):
        g = load_edge_list(io.StringIO("0 1\n"))
        assert g.weights.tolist() == [1, 1]

    def test_explicit_num_vertices(self):
        g = load_edge_list(io.StringIO("0 1 2\n"), num_vertices=10)
        assert g.num_vertices == 10


class TestEclHardening:
    """Malformed binaries raise typed GraphFormatError, not garbage."""

    def _bytes(self, graph):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "g.ecl"
            save_ecl(graph, path)
            return path.read_bytes()

    def test_truncated_header(self, tmp_path, triangle):
        data = self._bytes(triangle)
        path = tmp_path / "t.ecl"
        path.write_bytes(data[:10])
        with pytest.raises(GraphFormatError, match="truncated"):
            load_ecl(path)

    def test_truncated_arrays(self, tmp_path, triangle):
        data = self._bytes(triangle)
        path = tmp_path / "t.ecl"
        path.write_bytes(data[:-5])
        with pytest.raises(GraphFormatError, match="truncated"):
            load_ecl(path)

    def test_graph_format_error_is_value_error(self, tmp_path):
        path = tmp_path / "bad.ecl"
        path.write_bytes(b"NOTAGRAPH")
        with pytest.raises(GraphFormatError):
            load_ecl(path)
        assert issubclass(GraphFormatError, ValueError)


class TestEdgeListHardening:
    def test_too_few_fields(self):
        with pytest.raises(GraphFormatError, match=":2:"):
            load_edge_list(io.StringIO("0 1 3\n7\n"), name="x.txt")

    def test_non_integer_token(self):
        with pytest.raises(GraphFormatError, match="non-integer"):
            load_edge_list(io.StringIO("0 one 3\n"))

    def test_negative_vertex(self):
        with pytest.raises(GraphFormatError, match="negative vertex"):
            load_edge_list(io.StringIO("-1 2 3\n"))

    def test_negative_weight(self):
        with pytest.raises(GraphFormatError, match="negative edge weight"):
            load_edge_list(io.StringIO("0 1 -3\n"))

    def test_weight_bound(self):
        huge = WEIGHT_BOUND
        with pytest.raises(GraphFormatError, match="31-bit"):
            load_edge_list(io.StringIO(f"0 1 {huge}\n"))

    def test_non_utf8_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1 3\n1 2 \xff\n")
        with pytest.raises(GraphFormatError, match=f"^{path}:2: not UTF-8"):
            load_edge_list(path)

    def test_max_legal_weight_accepted(self):
        g = load_edge_list(io.StringIO(f"0 1 {WEIGHT_BOUND - 1}\n"))
        assert g.weights.max() == WEIGHT_BOUND - 1


class TestBuildWeightBound:
    def test_build_rejects_out_of_range(self):
        from repro.graph.build import build_csr

        u = np.array([0], dtype=np.int64)
        v = np.array([1], dtype=np.int64)
        w = np.array([WEIGHT_BOUND], dtype=np.int64)
        with pytest.raises(GraphFormatError, match="31-bit"):
            build_csr(2, u, v, w)

    def test_build_rejects_negative(self):
        from repro.graph.build import build_csr

        u = np.array([0], dtype=np.int64)
        v = np.array([1], dtype=np.int64)
        w = np.array([-1], dtype=np.int64)
        with pytest.raises(GraphFormatError):
            build_csr(2, u, v, w)
