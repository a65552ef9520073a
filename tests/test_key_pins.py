"""Golden key pins: query spec keys, config hashes and graph fingerprints.

The service coalesces in-flight queries on :meth:`Query.spec_key` and
caches results under the graph fingerprint digest × :meth:`Query.config_hash`.
These pins hold every such key fixed, so a change to how the keys are
computed (a memo, a shared stage table, a cached fingerprint) cannot
move a key without failing here.  They cover every Table-5 stage choice
(none plus the nine stage names) × three config overrides × verify
off/on, and the fingerprint digest of all 17 suite inputs at scale 0.06.

Regenerate only for a change that is meant to alter the keys::

    PYTHONPATH=src python tests/test_key_pins.py > tests/key_pins.json
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.core.config import DEOPT_STAGE_NAMES
from repro.generators import suite
from repro.obs.profile import graph_fingerprint
from repro.service import Query

PINS_PATH = Path(__file__).with_name("key_pins.json")
SCALE = 0.06

STAGES: tuple[str | None, ...] = (None, *DEOPT_STAGE_NAMES)
CONFIGS: tuple[dict, ...] = ({}, {"seed": 7}, {"filtering": False})
VERIFY = (False, True)


def _case_id(stage, config, verify) -> str:
    return f"{stage or '-'}|{json.dumps(config, sort_keys=True)}|verify={verify}"


QUERY_CASES = [
    (_case_id(s, c, v), s, c, v) for s in STAGES for c in CONFIGS for v in VERIFY
]


def query_keys(stage, config, verify) -> dict[str, str]:
    query = Query(input="internet", scale=SCALE, stage=stage, config=config, verify=verify)
    return {"spec_key": query.spec_key(), "config_hash": query.config_hash()}


def record() -> dict:
    return {
        "queries": {cid: query_keys(s, c, v) for cid, s, c, v in QUERY_CASES},
        "fingerprints": {
            name: graph_fingerprint(suite.build(name, scale=SCALE))["digest"]
            for name in suite.INPUT_NAMES
        },
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_case(pins):
    assert set(pins["queries"]) == {cid for cid, *_ in QUERY_CASES}
    assert set(pins["fingerprints"]) == set(suite.INPUT_NAMES)


@pytest.mark.parametrize(
    "case_id,stage,config,verify", QUERY_CASES, ids=[c[0] for c in QUERY_CASES]
)
def test_query_keys_match_pin(pins, case_id, stage, config, verify):
    assert query_keys(stage, config, verify) == pins["queries"][case_id]


@pytest.mark.parametrize("name", suite.INPUT_NAMES)
def test_fingerprint_matches_pin(pins, name):
    graph = suite.build(name, scale=SCALE)
    first = graph_fingerprint(graph)
    assert first["digest"] == pins["fingerprints"][name]
    # A cached digest must come back unchanged, in a fresh dict.
    again = graph_fingerprint(graph)
    assert again == first and again is not first


def test_replaced_query_gets_a_fresh_spec_key():
    # The serial fallback re-specs a query with dataclasses.replace;
    # the copy must not keep the original's cached keys.
    query = Query(input="internet", scale=SCALE, n_faults=1, fault_seed=3)
    reseeded = dataclasses.replace(query, fault_seed=4)
    assert reseeded.spec_key() != query.spec_key()
    assert reseeded.config_hash() != query.config_hash()
    assert reseeded.spec_key() == Query(
        input="internet", scale=SCALE, n_faults=1, fault_seed=4
    ).spec_key()


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
