"""Mutation fuzz of the four graph readers.

``internet`` ×0.06 is written as ``.gr``, ``.graph``, ``.ecl`` and
``.txt``; each example truncates, flips or inserts bytes of one file.
Every mutation must either raise :class:`GraphFormatError` or load a
graph that writes back in the same format and reloads equal.  The
search is derandomized and bounded, so the examples are the same on
every run.
"""

import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.errors import GraphFormatError
from repro.generators import suite
from repro.graph.io import load_graph, save_graph

SUFFIXES = (".gr", ".graph", ".ecl", ".txt")

_where = st.floats(0.0, 1.0, exclude_max=True)
MUTATION = st.one_of(
    st.tuples(st.just("truncate"), _where, st.just(None)),
    st.tuples(st.just("flip"), _where, st.integers(0, 7)),
    st.tuples(st.just("insert"), _where, st.binary(min_size=1, max_size=8)),
)


def mutate(data: bytes, ops) -> bytes:
    """Apply ``(op, where, arg)`` edits; ``where`` is a fraction of the
    current length."""
    buf = bytearray(data)
    for op, where, arg in ops:
        i = int(where * len(buf))
        if op == "truncate":
            del buf[i:]
        elif op == "flip" and buf:
            buf[i] ^= 1 << arg
        elif op == "insert":
            buf[i:i] = arg
    return bytes(buf)


@functools.cache
def original(suffix: str) -> bytes:
    """``internet`` ×0.06 written in the format ``suffix`` names."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / f"internet{suffix}"
        save_graph(suite.build("internet", scale=0.06), path)
        return path.read_bytes()


@pytest.mark.parametrize("suffix", SUFFIXES)
@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(ops=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_file_is_typed_error_or_round_trips(suffix, ops, tmp_path_factory):
    folder = tmp_path_factory.getbasetemp()
    path = folder / f"mutated{suffix}"
    path.write_bytes(mutate(original(suffix), ops))
    try:
        graph = load_graph(path)
    except GraphFormatError:
        event("typed error")
        return
    event("loaded")
    again = folder / f"again{suffix}"
    save_graph(graph, again)
    back = load_graph(again)
    assert back.num_vertices == graph.num_vertices
    assert np.array_equal(back.row_ptr, graph.row_ptr)
    assert np.array_equal(back.col_idx, graph.col_idx)
    assert np.array_equal(back.weights, graph.weights)
    assert np.array_equal(back.edge_ids, graph.edge_ids)


# Failures the fuzz found: a count read from a few bytes must fail
# typed before anything of that size is allocated.
@pytest.mark.parametrize(
    "suffix,text",
    [
        (".gr", "p sp 10000000000 1\na 1 2 5\n"),
        (".graph", "10000000000 0\n"),
        (".txt", "0 610773060 5\n"),
    ],
    ids=["dimacs-header", "metis-header", "edge-list-id"],
)
def test_vertex_count_beyond_budget_is_typed(suffix, text, tmp_path):
    path = tmp_path / f"big{suffix}"
    path.write_text(text)
    with pytest.raises(GraphFormatError, match="vertices is more than a"):
        load_graph(path)


def test_ecl_header_count_beyond_file_is_typed(tmp_path):
    data = bytearray(original(".ecl"))
    data[6:14] = (1 << 40).to_bytes(8, "little")  # num_vertices
    path = tmp_path / "big.ecl"
    path.write_bytes(bytes(data))
    with pytest.raises(GraphFormatError, match="truncated row_ptr array"):
        load_graph(path)
