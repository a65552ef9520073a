"""Golden policy-path pins: exact digests of outcomes the serving policy makes.

The outcome pins cover a policy-free service; these cover the typed
outcomes that exist only because of the serving policy, plus request
coalescing.  Each scenario drives its own one-worker
:class:`MSTService` and pins one outcome as a sha256 of
``QueryOutcome.to_dict()`` minus the wall-clock fields, the in-memory
``result_key``, and the wall-clock policy field ``staleness_s``:

* ``admission-shed`` — a one-token bucket with no practical refill
  (``admission_rate=0.001``, ``admission_burst=1``) sheds the second
  distinct query;
* ``quarantined`` — a poison spec (unguarded ``kernel-fail``) refused
  at submit after ``quarantine_after`` failed executions;
* ``breaker-shed`` — ``breaker_threshold=1`` with a one-hour cooldown
  opens on the first failure; a fresh healthy spec on the same graph is
  shed by the worker's breaker check;
* ``stale-cache`` — the same open breaker with ``serve_stale``: a
  learned spec whose cache entry is past its freshness TTL answers
  degraded from the stale entry;
* ``serial-fallback`` — ``degrade_serial`` answers a failed poison
  query with the graph's cached serial-Kruskal reference MSF;
* ``coalesced`` — on the single worker, a duplicate pair queued behind
  another query runs once; the second waiter attaches to it;
* ``timeout`` — the single worker is held on a :class:`threading.Event`
  by the first query, so a second query with ``timeout_s=0.05`` is
  cancelled while still queued.

None of the scenarios depends on a clock: the bucket never refills a
token, the breaker never cools down, the stale entry only needs to
be older than a microsecond, and the timed-out query cannot start
before its waiter gives up, however long that takes.

Regenerate only for a change that is meant to alter outcomes::

    PYTHONPATH=src python tests/test_policy_pins.py > tests/policy_pins.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

from repro.resilience.policy import PolicyConfig
from repro.service import MSTService, Query, ServiceConfig

PINS_PATH = Path(__file__).with_name("policy_pins.json")
SCALE = 0.06

# Wall-clock fields vary run to run; result_key embeds the in-memory
# config hash, which is not a stable format.
UNPINNED = ("load_seconds", "run_seconds", "latency_s", "result_key")
UNPINNED_POLICY = ("staleness_s",)


def outcome_digest(row: dict) -> str:
    pinned = {k: v for k, v in row.items() if k not in UNPINNED}
    if "policy" in pinned:
        pinned["policy"] = {
            k: v for k, v in pinned["policy"].items() if k not in UNPINNED_POLICY
        }
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()


def q(query_id: str, **kw) -> Query:
    kw.setdefault("input", "internet")
    kw.setdefault("scale", SCALE)
    return Query(id=query_id, **kw)


def poison(query_id: str, **kw) -> Query:
    """A deterministically failing spec: unguarded kernel-fail injection."""
    kw.setdefault("fault_seed", 1234)
    return q(
        query_id, n_faults=1, fault_kinds=("kernel-fail",), check_cadence=0, **kw
    )


def _service(postmortem_dir: str, policy: PolicyConfig | None = None):
    return MSTService(
        ServiceConfig(
            workers=1, policy=policy, postmortem_dir=postmortem_dir
        )
    )


def admission_shed(svc: MSTService) -> dict:
    assert svc.submit(q("admitted", priority=2)).outcome().ok
    return svc.submit(
        q("admission-shed", priority=2, config={"filtering": False})
    ).outcome().to_dict()


def quarantined(svc: MSTService) -> dict:
    assert svc.submit(poison("first-failure")).outcome().status == "error"
    return svc.submit(poison("quarantined")).outcome().to_dict()


def breaker_shed(svc: MSTService) -> dict:
    assert svc.submit(poison("opens-breaker")).outcome().status == "error"
    return svc.submit(q("breaker-shed")).outcome().to_dict()


def stale_cache(svc: MSTService) -> dict:
    assert svc.submit(q("seed")).outcome().ok
    assert svc.submit(poison("opens-breaker")).outcome().status == "error"
    return svc.submit(q("stale-cache")).outcome().to_dict()


def serial_fallback(svc: MSTService) -> dict:
    return svc.submit(poison("serial-fallback")).outcome().to_dict()


def coalesced(svc: MSTService) -> dict:
    outcomes = svc.run_batch(
        [
            q("occupier", input="2d-2e20.sym"),
            q("primary", config={"filtering": False}),
            q("coalesced", config={"filtering": False}),
        ]
    )
    return outcomes[-1].to_dict()


def timeout(svc: MSTService) -> dict:
    release = threading.Event()
    job = svc._thread_job

    def held(*args):
        release.wait()
        return job(*args)

    svc._thread_job = held
    first = svc.submit(q("held"))
    svc._thread_job = job
    late = svc.submit(q("timeout", config={"filtering": False}, timeout_s=0.05))
    out = late.outcome()
    release.set()
    assert first.outcome().ok
    return out.to_dict()


BREAKER = dict(breaker_threshold=1, breaker_cooldown_s=3600.0)
SCENARIOS = {
    "admission-shed": (
        admission_shed,
        PolicyConfig(admission_rate=0.001, admission_burst=1),
    ),
    "quarantined": (quarantined, PolicyConfig(quarantine_after=1)),
    "breaker-shed": (breaker_shed, PolicyConfig(**BREAKER)),
    "stale-cache": (
        stale_cache,
        PolicyConfig(serve_stale=True, fresh_ttl_s=1e-6, **BREAKER),
    ),
    "serial-fallback": (serial_fallback, PolicyConfig(degrade_serial=True)),
    "coalesced": (coalesced, None),
    "timeout": (timeout, None),
}


def serve_scenarios(postmortem_dir: str) -> dict[str, dict]:
    """Run every scenario on its own service; the pinned outcome's
    ``to_dict()`` by scenario name."""
    rows: dict[str, dict] = {}
    for name, (drive, policy) in SCENARIOS.items():
        with _service(postmortem_dir, policy) as svc:
            rows[name] = drive(svc)
    return rows


@pytest.fixture(scope="module")
def served(tmp_path_factory) -> dict[str, dict]:
    return serve_scenarios(str(tmp_path_factory.mktemp("postmortems")))


def _pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_the_scenarios(served):
    assert set(_pins()) == set(SCENARIOS) == set(served)


def test_each_scenario_reaches_its_policy_path(served):
    assert served["admission-shed"]["status"] == "shed"
    assert served["admission-shed"]["policy"]["reason"] == "token-bucket"
    assert served["quarantined"]["status"] == "quarantined"
    assert served["breaker-shed"]["status"] == "shed"
    assert served["breaker-shed"]["policy"]["reason"] == "breaker-open"
    assert served["stale-cache"]["served_by"] == "stale-cache"
    assert served["stale-cache"]["status"] == "degraded"
    assert served["serial-fallback"]["served_by"] == "serial-fallback"
    assert served["serial-fallback"]["status"] == "degraded"
    assert served["coalesced"]["served_by"] == "coalesced"
    assert served["timeout"]["status"] == "timeout"
    assert served["timeout"]["error"].startswith("cancelled while queued")


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_outcome_matches_pin(served, scenario):
    assert outcome_digest(served[scenario]) == _pins()[scenario]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = serve_scenarios(tmp)
    pins = {name: outcome_digest(rows[name]) for name in SCENARIOS}
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
