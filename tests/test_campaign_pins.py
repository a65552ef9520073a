"""Golden campaign pins: the exact report text of the CI chaos campaigns.

Each campaign is a seeded fault-injection run through the ``chaos``
subcommand, so its :meth:`CampaignReport.render` table — trials,
injected faults, and the recovered / benign / escaped split per fault
model — is deterministic.  The pins hold that text verbatim, so a
change to fault planning, detection or recovery shows up as a readable
diff instead of a hand comparison against the parent commit.

Regenerate only for a change that is meant to alter campaign results::

    PYTHONPATH=src python tests/test_campaign_pins.py > tests/campaign_pins.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

PINS_PATH = Path(__file__).with_name("campaign_pins.json")

# The chaos-smoke campaigns of the CI workflow, by name.
CAMPAIGNS: dict[str, list[str]] = {
    "internet-all-kinds": [
        "internet", "--scale", "0.06", "--faults", "30", "--seed", "0",
    ],
    "internet-bitflips-no-sweeps": [
        "internet", "--scale", "0.06", "--faults", "12", "--seed", "1",
        "--cadence", "0", "--kinds", "bitflip-parent,bitflip-minedge",
    ],
    "rmat22-bitflip-parent": [
        "rmat22.sym", "--scale", "1", "--faults", "40", "--seed", "5",
        "--kinds", "bitflip-parent", "--cadence", "0",
    ],
    "rmat22-atomics": [
        "rmat22.sym", "--scale", "1", "--faults", "30", "--seed", "3",
        "--kinds", "drop-atomic,dup-atomic,permute-atomic", "--cadence", "0",
    ],
}


def run_campaign_cli(args: list[str]) -> str:
    """Run ``chaos`` with ``args``; the report it prints on success."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["chaos", *args])
    assert rc == 0, out.getvalue()
    return out.getvalue()


def test_pins_cover_the_campaigns():
    assert set(json.loads(PINS_PATH.read_text())) == set(CAMPAIGNS)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_matches_pin(name):
    pinned = json.loads(PINS_PATH.read_text())[name]
    assert run_campaign_cli(CAMPAIGNS[name]).splitlines() == pinned


if __name__ == "__main__":
    pins = {name: run_campaign_cli(args).splitlines() for name, args in CAMPAIGNS.items()}
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
