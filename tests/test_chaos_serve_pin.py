"""Pin of the chaos-serve campaign (the CI ``chaos-serve-smoke`` step).

``repro-mst chaos internet --scale 0.06 --serve --queries 12
--slowdown 2.0 --seed 0 -v`` drives a policy-armed service through
four phases (overload, quarantine, breaker trip, recovery).  The
admission bucket refills on the wall clock, so not every line of its
output repeats run to run.  This pin holds only what does:

* **the verdict** — ``escaped=0 hung=0 untyped=0``, the breaker's full
  open → closed cycle, and PASS;
* **the phase sequence** — the phase headers, in order;
* **phase 1** — every overload query is either served ``ok`` or
  ``shed``; how many of each depends on the bucket level as the
  concurrent submits land (``ok=4 shed=8`` and ``ok=5 shed=7`` both
  occur);
* **the quarantine edge** — the poison spec executes and fails twice
  (``quarantine_after=2``), then its third submit is ``quarantined``;
* **the breaker trip** — the first break query is the third
  consecutive failure, so it executes, fails and opens the breaker;
* **recovery** — some probe after the cooldown answers ``ok`` and
  closes the breaker (which one depends on wall-clock sleeps).

An executed-and-failed query answers ``degraded`` when the serial
fallback finds bucket headroom (it needs three tokens: one plus the
lowest-priority reserve of half the burst of four), else ``error``.
The bucket is full when phase 2 starts (0.1 s of refill at 50/s), so
``poison-0`` always degrades; ``poison-1`` and ``break-0`` depend on
how far the bucket refilled during the preceding executions, so the
pin accepts either member of that family.
"""

from __future__ import annotations

import json
import re

from repro.cli import main
from repro.obs.events import reset_events

CAMPAIGN = [
    "chaos", "internet", "--scale", "0.06", "--serve", "--queries", "12",
    "--slowdown", "2.0", "--seed", "0", "-v",
]

# An executed query that failed: degraded when the serial fallback
# found bucket headroom, error when it did not.
FAILED = "(degraded|error)"

PROGRESS = [
    r"phase 1: 12 concurrent chaos queries \(x2\.0 slowdown\)",
    r"phase 1 done: ok=(\d+) shed=(\d+)",
    r"phase 2: quarantining a poison spec",
    r"  poison-0: degraded",
    rf"  poison-1: {FAILED}",
    r"  poison-2: quarantined",
    r"phase 3: tripping the circuit breaker",
    rf"  break-0: {FAILED} \(breaker open\)",
    r"phase 4: probing until the breaker closes",
    r"  probe-\d+: ok \(breaker closed\)",
]

VERDICT = [
    "escaped=0 hung=0 untyped=0",
    "breaker: opened=True recovered=True",
    "verdict: PASS (overload-safety contract held)",
]


def test_chaos_serve_campaign_matches_pin(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the service's postmortem bundles
    events_path = tmp_path / "campaign_events.ndjson"
    try:
        rc = main([*CAMPAIGN, "--log-json", str(events_path)])
    finally:
        reset_events()
    captured = capsys.readouterr()
    assert rc == 0, captured.out

    progress = captured.err.splitlines()
    assert len(progress) == len(PROGRESS), progress
    for line, pattern in zip(progress, PROGRESS):
        assert re.fullmatch(pattern, line), (line, pattern)
    ok, shed = map(int, re.fullmatch(PROGRESS[1], progress[1]).groups())
    assert ok >= 1 and shed >= 1 and ok + shed == 12, progress[1]

    report = captured.out.splitlines()
    assert report[-len(VERDICT):] == VERDICT, report

    names = [json.loads(line)["event"] for line in events_path.open()]
    assert names.count("policy.quarantine") == 1, sorted(set(names))
    assert names.count("breaker.open") == 1, sorted(set(names))
    assert names.count("breaker.closed") == 1, sorted(set(names))
