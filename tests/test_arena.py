"""ScratchArena semantics: reuse, growth, and the fill option."""

import numpy as np

from repro.core.arena import ScratchArena


def test_same_name_reuses_backing_storage():
    a = ScratchArena()
    v1 = a.take("x", 8)
    v1[:] = 7
    v2 = a.take("x", 8)
    assert v2.base is v1.base or v2 is v1
    assert (v2 == 7).all()  # contents survive: reuse is free
    assert a.requests == 2 and a.reuses == 1


def test_growth_at_least_doubles():
    a = ScratchArena()
    a.take("x", 100)
    a.take("x", 101)  # near-miss grow
    assert a._buffers["x"].size >= 200
    v = a.take("x", 150)  # fits the doubled capacity: no realloc
    assert v.size == 150 and a.reuses == 1


def test_dtype_change_reallocates():
    a = ScratchArena()
    a.take("x", 8, np.int64)
    v = a.take("x", 8, np.float64)
    assert v.dtype == np.float64
    assert a.reuses == 0


def test_fill_initializes_every_call():
    a = ScratchArena()
    v = a.take("x", 4, fill=0)
    v[:] = 9
    v = a.take("x", 4, fill=0)
    assert (v == 0).all()


def test_nbytes_counts_backing_not_views():
    a = ScratchArena()
    a.take("x", 4, np.int64)
    a.take("y", 4, np.int8)
    assert a.nbytes == 4 * 8 + 4
