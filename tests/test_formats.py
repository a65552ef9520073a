"""DIMACS and METIS format tests."""

import io

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.generators import suite
from repro.graph.formats import load_dimacs, load_metis, save_dimacs, save_metis


def truncated_internet_metis(tmp_path):
    """``internet`` at scale 0.06 as METIS, cut to its first 19 of 122
    lines: the header still says 181 edges over 120 vertices."""
    path = tmp_path / "internet.graph"
    save_metis(suite.build("internet", scale=0.06), path)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 122
    path.write_text("".join(lines[:19]))
    return path


class TestDimacs:
    def test_parse_basic(self):
        text = io.StringIO(
            "c a road graph\n"
            "p sp 3 4\n"
            "a 1 2 10\n"
            "a 2 1 10\n"
            "a 2 3 20\n"
            "a 3 2 20\n"
        )
        g = load_dimacs(text)
        assert g.num_vertices == 3
        assert g.num_edges == 2  # both directions merged
        assert sorted(g.weights.tolist()) == [10, 10, 20, 20]

    def test_one_direction_input_symmetrized(self):
        g = load_dimacs(io.StringIO("p sp 2 1\na 1 2 7\n"))
        assert g.num_directed_edges == 2

    def test_missing_problem_line(self):
        with pytest.raises(ValueError, match="problem line"):
            load_dimacs(io.StringIO("a 1 2 3\n"))

    def test_unknown_line_type(self):
        with pytest.raises(ValueError, match="unknown"):
            load_dimacs(io.StringIO("p sp 2 1\nx 1 2\n"))

    def test_malformed_problem(self):
        with pytest.raises(ValueError, match="malformed"):
            load_dimacs(io.StringIO("p tw 2 1\n"))

    def test_non_integer_token_names_path_and_line(self):
        text = io.StringIO("p sp 2 1\na 1 two 7\n")
        with pytest.raises(GraphFormatError, match="^roads:2: non-integer"):
            load_dimacs(text, name="roads")

    @pytest.mark.parametrize("arcs", [0, 1, 3])
    def test_arc_count_must_match_problem_line(self, arcs):
        text = "p sp 3 2\n" + "".join(f"a 1 {2 + i % 2} 7\n" for i in range(arcs))
        with pytest.raises(GraphFormatError, match="arc count mismatch"):
            load_dimacs(io.StringIO(text))

    def test_roundtrip(self, tmp_path, medium_graph):
        path = tmp_path / "g.gr"
        save_dimacs(medium_graph, path)
        back = load_dimacs(path)
        assert back.num_vertices == medium_graph.num_vertices
        assert back.num_edges == medium_graph.num_edges
        assert np.array_equal(
            np.sort(back.weights), np.sort(medium_graph.weights)
        )

    def test_roundtrip_preserves_mst(self, tmp_path, medium_graph):
        from repro.core.verify import reference_mst_mask

        path = tmp_path / "g.gr"
        save_dimacs(medium_graph, path)
        back = load_dimacs(path)
        u1, v1, w1, _ = medium_graph.undirected_edges()
        u2, v2, w2, _ = back.undirected_edges()
        assert np.array_equal(u1, u2) and np.array_equal(w1, w2)


class TestMetis:
    def test_parse_weighted(self):
        text = io.StringIO(
            "% comment\n"
            "3 2 1\n"
            "2 5 3 7\n"  # vertex 1: edges to 2 (w 5) and 3 (w 7)
            "1 5\n"
            "1 7\n"
        )
        g = load_metis(text)
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert sorted(set(g.weights.tolist())) == [5, 7]

    def test_parse_unweighted(self):
        g = load_metis(io.StringIO("2 1\n2\n1\n"))
        assert g.num_edges == 1
        assert g.weights.tolist() == [1, 1]

    def test_too_many_adjacency_lines(self):
        with pytest.raises(ValueError, match="adjacency lines"):
            load_metis(io.StringIO("2 1\n2\n1\n1\n"))

    def test_short_file_pads_isolated_vertices(self):
        # Trailing blank adjacency lines (isolated vertices) may be
        # trimmed by editors; the loader pads them back.
        g = load_metis(io.StringIO("3 1\n2\n1\n"))
        assert g.num_vertices == 3
        assert g.num_edges == 1

    def test_unsupported_fmt(self):
        with pytest.raises(ValueError, match="fmt"):
            load_metis(io.StringIO("2 1 10\n2 1\n1 1\n"))

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            load_metis(io.StringIO(""))

    def test_roundtrip(self, tmp_path, medium_graph):
        path = tmp_path / "g.graph"
        save_metis(medium_graph, path)
        back = load_metis(path)
        assert back.num_vertices == medium_graph.num_vertices
        assert back.num_edges == medium_graph.num_edges
        assert np.array_equal(back.col_idx, medium_graph.col_idx)
        assert np.array_equal(back.weights, medium_graph.weights)

    def test_trailing_isolated_vertices(self, tmp_path):
        from helpers import make_graph

        g = make_graph(6, [(0, 1, 3)])  # vertices 2..5 isolated
        path = tmp_path / "iso.graph"
        save_metis(g, path)
        back = load_metis(path)
        assert back.num_vertices == 6
        assert back.num_edges == 1

    def test_wild_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            load_metis(io.StringIO("2 40\n2\n1\n"))

    def test_edge_count_must_be_exact(self):
        # Two adjacency entries are one edge; a header of 2 is a lie.
        with pytest.raises(GraphFormatError, match="mismatch"):
            load_metis(io.StringIO("2 2\n2\n1\n"))

    def test_truncated_file_is_rejected(self, tmp_path):
        path = truncated_internet_metis(tmp_path)
        with pytest.raises(GraphFormatError, match="header says 181 edges"):
            load_metis(path)

    def test_non_integer_token_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("% c\n2 1\n2\n1.5\n")
        with pytest.raises(GraphFormatError, match=f"^{path}:4: non-integer"):
            load_metis(path)

    def test_neighbour_out_of_range_is_a_format_error(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            load_metis(io.StringIO("2 1\n3\n1\n"))
