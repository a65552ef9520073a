"""The init kernel's candidate edges: the graph's cached one-direction
view and the selection that fills WL1 from it.

The differential test replays each run with the selection swapped for
the original full-width mask formula over int64 copies of the CSR
columns (inlined below) and requires the same worklist entries, in the
same order, and the same complete result: MST bitmap, final forest,
every counter and the modeled time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from test_engine_differential import _eq

from repro.core import eclmst, kernels
from repro.core.config import EclMstConfig
from repro.core.eclmst import ecl_mst
from repro.core.kernels import MstState, kernel_init_populate
from repro.core.worklist import EdgeList
from repro.generators import suite
from repro.gpusim.costmodel import Device
from repro.gpusim.spec import RTX_3080_TI

INPUTS = ["internet", "USA-road-d.NY", "rmat16.sym", "kron_g500-logn21"]
SCALE = 0.25
SEED = 7


def _graph(name):
    return suite.build(name, scale=SCALE, seed=SEED)


# ----------------------------------------------------------------------
# The cached view
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", INPUTS)
def test_view_is_read_only_and_matches_undirected_edges(name):
    g = _graph(name)
    view = g.one_direction_edges()
    assert g.one_direction_edges() is view  # cached
    for col, like in zip(view, (g.col_idx, g.col_idx, g.weights, g.edge_ids)):
        assert not col.flags.writeable
        assert col.dtype == like.dtype
        with pytest.raises(ValueError):
            col[:1] = 0
    src, dst, w, eid = view
    assert np.all(src < dst)
    # CSR slot order: the sources never decrease.
    assert np.all(np.diff(src) >= 0)
    # The same edges as undirected_edges(), which orders them by ID.
    order = np.argsort(eid)
    for a, b in zip((src, dst, w, eid), g.undirected_edges()):
        assert np.array_equal(a[order], b)


def _digest(result, parent) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.in_mst, dtype=np.bool_).tobytes())
    h.update(np.ascontiguousarray(parent, dtype=np.int64).tobytes())
    h.update(json.dumps(result.counters.to_dict(), sort_keys=True).encode())
    h.update(repr(float(result.modeled_seconds)).encode())
    return h.hexdigest()


def _solve(graph, config):
    """``ecl_mst`` plus the run's final ``parent``."""
    states = []
    create = MstState.create

    def capture(graph, config, device):
        states.append(create(graph, config, device))
        return states[-1]

    with mock.patch.object(MstState, "create", capture):
        result = ecl_mst(graph, config)
    return result, states[0].parent


@pytest.mark.parametrize("single_direction", [True, False])
def test_mutating_the_worklist_leaves_the_graph_alone(single_direction):
    g = _graph("rmat16.sym")
    cfg = EclMstConfig(filtering=False, single_direction=single_direction)
    before = _digest(*_solve(g, cfg))
    view = [c.copy() for c in g.one_direction_edges()]
    csr = [a.copy() for a in (g.col_idx, g.weights, g.edge_ids)]

    state = MstState.create(g, cfg, Device(RTX_3080_TI))
    kernel_init_populate(state, None, phase=0)
    front = state.wl.front
    for col in (front.v, front.n, front.w, front.eid):
        col += 1

    for a, b in zip(g.one_direction_edges(), view):
        assert np.array_equal(a, b)
    for a, b in zip((g.col_idx, g.weights, g.edge_ids), csr):
        assert np.array_equal(a, b)
    assert _digest(*_solve(g, cfg)) == before


# ----------------------------------------------------------------------
# Differential: the selection against the original mask formula
# ----------------------------------------------------------------------
def _mask_formula(graph, cfg, threshold, phase) -> EdgeList:
    src = graph.edge_sources().astype(np.int64)
    dst = graph.col_idx.astype(np.int64)
    w = graph.weights.astype(np.int64)
    eid = graph.edge_ids.astype(np.int64)
    mask = src < dst if cfg.single_direction else np.ones(src.size, dtype=bool)
    if threshold is not None:
        mask &= (w < threshold) if phase == 1 else (w >= threshold)
    return EdgeList(src[mask], dst[mask], w[mask], eid[mask])


def _traced_run(graph, config):
    """Result, final parent and every init call's ``(phase, WL1)``."""
    fills = []
    init = eclmst.kernel_init_populate

    def record(state, threshold, phase):
        appended = init(state, threshold, phase)
        f = state.wl.front
        fills.append((phase, [c.copy() for c in (f.v, f.n, f.w, f.eid)]))
        return appended

    with mock.patch.object(eclmst, "kernel_init_populate", record):
        result, parent = _solve(graph, config)
    return dataclasses.asdict(result), parent, fills


@pytest.mark.parametrize("implicit", [True, False], ids=["ipc", "halving"])
@pytest.mark.parametrize("data_driven", [True, False], ids=["data", "topo"])
@pytest.mark.parametrize("single", [True, False], ids=["one-dir", "both-dir"])
@pytest.mark.parametrize("filtering", [True, False], ids=["phases-1-2", "phase-0"])
@pytest.mark.parametrize("name", INPUTS)
def test_selection_matches_mask_formula(name, filtering, single, data_driven, implicit):
    g = _graph(name)
    # filter_c = 2 engages filtering on the road graph too.
    cfg = EclMstConfig(
        filtering=filtering,
        single_direction=single,
        data_driven=data_driven,
        implicit_path_compression=implicit,
        filter_c=2.0,
    )
    with mock.patch.object(kernels, "candidate_edges", _mask_formula), \
            mock.patch.object(eclmst, "candidate_edges", _mask_formula):
        want, want_parent, want_fills = _traced_run(g, cfg)
    got, got_parent, got_fills = _traced_run(g, cfg)

    phases = [p for p, _ in got_fills]
    assert phases == ([1, 2] if filtering else [0])
    assert [p for p, _ in want_fills] == phases
    for (_, a), (_, b) in zip(got_fills, want_fills):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.array_equal(got_parent, want_parent)
    for key in want.keys() - {"graph"}:  # one input; only its caches differ
        assert _eq(got[key], want[key]), f"selection diverges on {key!r}"
