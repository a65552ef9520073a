"""Golden baseline pins: exact digests of every runner and every
convergence trace on the suite.

The baselines share their union-find with :mod:`repro.dsu`, so a drift
in its links, finds or load counts would change a baseline's MST
bitmap, rounds or priced counters without failing any solver pin.
These pins catch it: each runner digest covers ``in_mst``,
``(total_weight, num_mst_edges, rounds)``, every counter
(``RunCounters.to_dict()``) and ``repr(modeled_seconds)`` of one run
on System 2; each trace digest covers ``in_mst`` and the winners of
every round of one :mod:`repro.core.convergence` parallelization.  A
runner that refuses a multi-component input pins ``"NC"``.

Regenerate only for a change that is meant to alter results::

    PYTHONPATH=src python tests/test_baseline_pins.py > tests/baseline_pins.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.registry import RUNNERS
from repro.bench.harness import SYSTEM2
from repro.core import convergence
from repro.errors import NotConnectedError
from repro.generators import suite
from repro.generators.suite import INPUT_NAMES

PINS_PATH = Path(__file__).with_name("baseline_pins.json")
SCALE = 0.25
SEED = 7
TRACES = ("kruskal_chunked_sorted", "kruskal_unsorted", "boruvka_parallel")


@functools.lru_cache(maxsize=1)
def _graph(name: str):
    return suite.build(name, scale=SCALE, seed=SEED)


def runner_digest(code: str, name: str) -> str:
    """sha256 over one baseline run's MST bitmap, totals, counters and
    modeled time, or ``"NC"``."""
    try:
        result = RUNNERS[code].run(_graph(name), gpu=SYSTEM2.gpu, cpu=SYSTEM2.cpu)
    except NotConnectedError:
        return "NC"
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.in_mst, dtype=np.bool_).tobytes())
    totals = (result.total_weight, result.num_mst_edges, result.rounds)
    h.update(repr(tuple(int(x) for x in totals)).encode())
    h.update(json.dumps(result.counters.to_dict(), sort_keys=True).encode())
    h.update(repr(float(result.modeled_seconds)).encode())
    return h.hexdigest()


def trace_digest(algorithm: str, name: str) -> str:
    """sha256 over one convergence trace's MST bitmap and per-round
    winners."""
    trace = getattr(convergence, algorithm)(_graph(name))
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.in_mst, dtype=np.bool_).tobytes())
    rounds = [sorted(w) for w in trace.winners_per_round]
    h.update(json.dumps(rounds).encode())
    return h.hexdigest()


def _key(code: str, name: str) -> str:
    return f"{code} | {name}"


def _all_keys() -> list[tuple[str, str]]:
    # Input-major, so consecutive runs share the cached graph.
    return [(c, n) for n in INPUT_NAMES for c in (*RUNNERS, *TRACES)]


def digest(code: str, name: str) -> str:
    if code in TRACES:
        return trace_digest(code, name)
    return runner_digest(code, name)


@functools.lru_cache(maxsize=1)
def _pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_runner_trace_and_input():
    assert set(_pins()) == {_key(c, n) for c, n in _all_keys()}


@pytest.mark.parametrize(("code", "name"), _all_keys())
def test_baseline_run_matches_pin(code, name):
    assert digest(code, name) == _pins()[_key(code, name)]


if __name__ == "__main__":
    pins = {_key(c, n): digest(c, n) for c, n in _all_keys()}
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
