"""Golden outcome pins: exact digests of served query outcomes.

The solver pins cover one ``ecl_mst`` call; these cover what the
service makes of it.  A fixed NDJSON stream is served in two batches
through a one-worker :class:`MSTService`, and each outcome
is pinned as a sha256 of ``QueryOutcome.to_dict()`` — status, error
taxonomy, fingerprint, weight, edge-set digest, every metric,
resilience ladder counts — minus the wall-clock fields and the
in-memory ``result_key`` (a cache key whose digest may change freely).
The stream hits a plain execution, a result-cache hit in the second
batch, ``verify``, a guarded chaos query, a baseline code, a Table-5
stage and an unknown-input typed error.

Regenerate only for a change that is meant to alter outcomes::

    PYTHONPATH=src python tests/test_outcome_pins.py > tests/outcome_pins.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.obs.recorder import RecorderConfig
from repro.service import MSTService, ServiceConfig, run_batch_lines

PINS_PATH = Path(__file__).with_name("outcome_pins.json")
SCALE = 0.06

BATCHES: tuple[tuple[dict, ...], ...] = (
    (
        {"id": "execute", "input": "internet", "scale": SCALE},
        {"id": "verify", "input": "2d-2e20.sym", "scale": SCALE, "verify": True},
        {
            "id": "chaos",
            "input": "internet",
            "scale": SCALE,
            "fault_seed": 11,
            "n_faults": 2,
            "check_cadence": 2,
        },
        {"id": "baseline", "input": "internet", "scale": SCALE, "code": "PBBS Ser."},
        {"id": "stage", "input": "internet", "scale": SCALE, "stage": "No Filter"},
        {"id": "unknown-input", "input": "atlantis", "scale": SCALE},
    ),
    ({"id": "cache-hit", "input": "internet", "scale": SCALE},),
)
QUERY_IDS = [q["id"] for batch in BATCHES for q in batch]

# Wall-clock fields vary run to run; result_key embeds the in-memory
# config hash, which is not a stable format.
UNPINNED = ("load_seconds", "run_seconds", "latency_s", "result_key")


def outcome_digest(row: dict) -> str:
    pinned = {k: v for k, v in row.items() if k not in UNPINNED}
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()


def serve_stream(postmortem_dir: str) -> dict[str, dict]:
    """Serve :data:`BATCHES` in order; each outcome's ``to_dict()`` by id."""
    config = ServiceConfig(
        workers=1, recorder=RecorderConfig(dir=postmortem_dir)
    )
    rows: dict[str, dict] = {}
    with MSTService(config) as service:
        for batch in BATCHES:
            lines = [json.dumps(q) for q in batch]
            for outcome in run_batch_lines(lines, service):
                rows[outcome.id] = outcome.to_dict()
    return rows


@pytest.fixture(scope="module")
def served(tmp_path_factory) -> dict[str, dict]:
    return serve_stream(str(tmp_path_factory.mktemp("postmortems")))


def _pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_the_stream(served):
    assert set(_pins()) == set(QUERY_IDS) == set(served)


def test_stream_hits_each_serving_path(served):
    assert served["execute"]["served_by"] == "execute"
    assert served["cache-hit"]["served_by"] == "result-cache"
    assert served["cache-hit"]["cache_hit"] is True
    assert served["chaos"]["resilience"]["detected"] >= 1
    assert served["baseline"]["code"] == "PBBS Ser."
    assert served["unknown-input"]["error_kind"] == "input"
    assert all(
        served[i]["status"] == "ok" for i in QUERY_IDS if i != "unknown-input"
    )


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_outcome_matches_pin(served, query_id):
    assert outcome_digest(served[query_id]) == _pins()[query_id]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = serve_stream(tmp)
    pins = {i: outcome_digest(rows[i]) for i in QUERY_IDS}
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
