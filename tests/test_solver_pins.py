"""Golden solver pins: exact digests of whole ECL-MST runs.

The engine-differential tests compare two engines that share the
init/k1 find path, so a drift in find results or in the modeled load
counts would pass them unnoticed.  These pins catch it: each digest
covers ``in_mst``, the final ``parent`` forest, every kernel counter
(``RunCounters.to_dict()``) and ``modeled_seconds`` of one run, for
every suite input under every Table-5 de-optimization stage (which
includes the topology-driven and explicit path-halving variants).

Regenerate only for a change that is meant to alter results::

    PYTHONPATH=src python tests/test_solver_pins.py > tests/solver_pins.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.config import DEOPT_STAGES
from repro.core.eclmst import ecl_mst
from repro.core.kernels import MstState
from repro.generators import suite
from repro.generators.suite import INPUT_NAMES

PINS_PATH = Path(__file__).with_name("solver_pins.json")
SCALE = 0.25
SEED = 7


def run_digest(name: str, stage: str) -> str:
    """sha256 over one run's MST bitmap, final forest, counters and
    modeled time."""
    graph = suite.build(name, scale=SCALE, seed=SEED)
    states: list[MstState] = []
    create = MstState.create

    def capture(graph, config, device):
        state = create(graph, config, device)
        states.append(state)
        return state

    with mock.patch.object(MstState, "create", capture):
        result = ecl_mst(graph, DEOPT_STAGES[stage])
    assert len(states) == 1
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.in_mst, dtype=np.bool_).tobytes())
    h.update(np.ascontiguousarray(states[0].parent, dtype=np.int64).tobytes())
    h.update(json.dumps(result.counters.to_dict(), sort_keys=True).encode())
    h.update(repr(float(result.modeled_seconds)).encode())
    return h.hexdigest()


def _key(name: str, stage: str) -> str:
    return f"{name} | {stage}"


def _pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_input_and_stage():
    assert set(_pins()) == {_key(n, s) for n in INPUT_NAMES for s in DEOPT_STAGES}


@pytest.mark.parametrize("stage", list(DEOPT_STAGES))
@pytest.mark.parametrize("name", INPUT_NAMES)
def test_solver_run_matches_pin(name, stage):
    assert run_digest(name, stage) == _pins()[_key(name, stage)]


if __name__ == "__main__":
    pins = {_key(n, s): run_digest(n, s) for n in INPUT_NAMES for s in DEOPT_STAGES}
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
