"""Golden telemetry pins: the names of everything the service exposes.

The outcome pins cover what a query returns; these cover what an
operator sees while it is served.  The outcome-pin stream is served
through the same one-worker :class:`MSTService`, followed by one
seeded kernel-fail query that the flight recorder captures as a
postmortem bundle.  The pins are sorted *names* only, never values:

* the keys of ``service.metrics()``;
* the key trees of ``status()``, ``recorder.debug_snapshot()`` and the
  captured bundle (lists are leaves);
* the ``/metrics`` family names;
* each executed query's span ``kind:name`` set, read from the
  recorder's span ring;
* the event names;
* the ``replay`` exit codes on the bundle and on a tampered copy.

Regenerate only for a change that is meant to alter the surface::

    PYTHONPATH=src python tests/test_telemetry_pins.py > tests/telemetry_pins.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from test_outcome_pins import BATCHES, SCALE

from repro.cli import main
from repro.obs.events import EventLog, ListSink
from repro.obs.recorder import load_bundle
from repro.service import MSTService, ServiceConfig, run_batch_lines
from repro.service.admin import render_prometheus

PINS_PATH = Path(__file__).with_name("telemetry_pins.json")

FAILING = {
    "id": "boom",
    "input": "internet",
    "scale": SCALE,
    "n_faults": 1,
    "check_cadence": 0,
    "fault_kinds": ["kernel-fail"],
    "fault_seed": 7,
}


def key_tree(obj, prefix: str = "") -> list[str]:
    """Every dotted key path of a nested dict; lists are leaves."""
    out = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.append(path)
            out.extend(key_tree(value, path))
    return sorted(out)


def family_names(exposition: str) -> list[str]:
    return sorted(
        {line.split(" ")[2] for line in exposition.splitlines() if line.startswith("# TYPE ")}
    )


def replay_exit_codes(bundle_path: Path, tmp: Path) -> dict[str, int]:
    """``replay`` on the bundle, and on a copy whose recorded exit code
    was tampered with."""
    tampered = json.loads(bundle_path.read_text())
    tampered["outcome"]["exit_code"] = 99
    copy = tmp / "tampered.bundle"
    copy.write_text(json.dumps(tampered))
    return {
        "bundle": main(["replay", str(bundle_path)]),
        "tampered": main(["replay", str(copy)]),
    }


def record_surface(postmortem_dir: Path) -> dict:
    """Serve the stream and collect the name sets listed above."""
    sink = ListSink()
    config = ServiceConfig(workers=1, postmortem_dir=str(postmortem_dir))
    spans: dict[str, set[str]] = {}
    with MSTService(config, events=EventLog(level="debug", sinks=[sink])) as service:
        recorder = service.recorder
        for batch in (*BATCHES, (FAILING,)):
            run_batch_lines([json.dumps(q) for q in batch], service)
        # The stream executes fewer queries than the span ring holds,
        # so the ring still has every executed query's tree.
        for query_id, root in recorder._trees:
            spans.setdefault(query_id, set()).update(
                f"{sp.kind}:{sp.name}" for sp, _, _ in root.walk()
            )
        surface = {
            "metrics": sorted(service.metrics()),
            "status": key_tree(service.status()),
            "debugz": key_tree(recorder.debug_snapshot()),
            "prometheus": family_names(render_prometheus(service)),
        }
    (bundle_path,) = [
        p
        for p in sorted(postmortem_dir.glob("PM_*.bundle"))
        if (load_bundle(p)["query"] or {}).get("id") == FAILING["id"]
    ]
    surface["bundle"] = key_tree(load_bundle(bundle_path))
    surface["spans"] = {qid: sorted(names) for qid, names in sorted(spans.items())}
    surface["events"] = sorted({e.name for e in sink.events})
    surface["replay"] = replay_exit_codes(bundle_path, postmortem_dir)
    return surface


@pytest.fixture(scope="module")
def surface(tmp_path_factory) -> dict:
    return record_surface(tmp_path_factory.mktemp("postmortems"))


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize(
    "part",
    ["metrics", "status", "debugz", "bundle", "prometheus", "spans", "events", "replay"],
)
def test_surface_matches_pin(surface, part):
    assert surface[part] == _pins()[part]


def test_replay_reproduces_and_detects_tampering(surface):
    assert surface["replay"] == {"bundle": 0, "tampered": 7}


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        pins = record_surface(Path(tmp))
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
