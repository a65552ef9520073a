"""Differential tests: the link-overlay union engine is bit-identical
to the scalar reference walk.

The solver always runs :func:`~repro.core.kernels._union_overlay`; the
oracle run substitutes :func:`~repro.core.kernels._union_scalar` for
it.  The contract is not "same MSF" but *same everything*: parent
forest evolution, MST bitmap, and every modeled counter
(``cas_attempts``, ``union_loads``, ``mirror_dups``, ...) — hence the
comparison below walks the full :class:`MstResult` as a dict, arrays
included.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.core import kernels
from repro.core.config import EclMstConfig
from repro.core.eclmst import ecl_mst
from repro.generators import rmat, suite
from repro.generators.suite import INPUT_NAMES
from repro.graph.build import build_csr


def _eq(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_eq(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_eq(x, y) for x, y in zip(a, b))
    return a == b


def assert_bit_identical(graph, config=None):
    """Run both engines on ``graph`` and diff the complete results."""
    with mock.patch.object(
        kernels, "_union_overlay", wraps=kernels._union_scalar
    ) as oracle:
        a = dataclasses.asdict(ecl_mst(graph, config))
    assert oracle.called, "the oracle run never reached the union"
    b = dataclasses.asdict(ecl_mst(graph, config))
    for key in a:
        assert _eq(a[key], b[key]), f"engines diverge on {key!r}"


@pytest.mark.parametrize("name", INPUT_NAMES)
def test_suite_graphs_bit_identical(name):
    assert_bit_identical(suite.build(name, scale=1.0, seed=7))


# Union-heavy inputs at a larger scale give the overlay walks long
# chains of same-call links, across every worklist and compression
# mode.
@pytest.mark.parametrize(
    "name", ["internet", "USA-road-d.NY", "rmat16.sym", "kron_g500-logn21"]
)
@pytest.mark.parametrize(
    "dd,ipc,sd",
    [
        (True, True, False),
        (False, True, False),
        (True, False, False),
        (False, False, True),
    ],
)
def test_config_matrix_bit_identical(name, dd, ipc, sd):
    g = suite.build(name, scale=4.0, seed=7)
    assert_bit_identical(
        g,
        EclMstConfig(
            data_driven=dd,
            implicit_path_compression=ipc,
            single_direction=sd,
        ),
    )


def test_default_config_road_bit_identical():
    assert_bit_identical(suite.build("USA-road-d.NY", scale=2.0, seed=7))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_multigraphs_bit_identical(seed):
    # Self-loops, parallel edges, duplicate weights, isolated vertices.
    rng = np.random.default_rng(seed)
    n, m = 400, 1600
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    w = rng.integers(1, 8, size=m)  # heavy ties -> contested unions
    assert_bit_identical(build_csr(n, u, v, w, name=f"rand-{seed}"))


def test_rmat_straggler_path_bit_identical():
    # Skewed RMAT at this size links many winners into one hub
    # component in a single call, so overlay walks run deep.
    assert_bit_identical(rmat(scale=13, edge_factor=8, seed=11))


def test_engine_is_config_semantics_neutral():
    # The union engine is not a config knob, so no config (and no
    # query hash built on one) can name it.
    names = {f.name for f in dataclasses.fields(EclMstConfig)}
    assert "engine" not in names
    with pytest.raises(TypeError):
        EclMstConfig(engine="scalar")
