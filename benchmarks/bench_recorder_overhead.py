"""Flight-recorder overhead — recorder-on vs recorder-off serving.

The recorder is always-on by default, so its cost is part of every
serve path.  This module measures the same mixed batch (cache-cold
executions across several inputs plus one seeded-fault query) with the
recorder armed and disarmed, asserts the solver results are
bit-identical either way (the recorder only observes, never perturbs),
and writes the relative wall overhead to ``recorder_overhead.json``
in the benchmark output directory.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.recorder import RecorderConfig
from repro.service import MSTService, Query, ServiceConfig

from _artifacts import write_artifact

SERVICE_SCALE = 0.06
INPUTS = ("internet", "2d-2e20.sym", "r4-2e23.sym", "USA-road-d.NY")
WORKERS = 4
REPS = 4  # visits per input; visits after the first hit the result cache


def _batch(tag: str, *, with_fault: bool, reps: int = REPS) -> list[Query]:
    """Representative serve traffic: one cold execution per input,
    then repeat visits answered by the result cache; optionally one
    deterministic failure so the recorder's capture path is part of
    the measured loop."""
    queries = [
        Query(input=name, id=f"{name}#{tag}r{r}", scale=SERVICE_SCALE)
        for r in range(reps)
        for name in INPUTS
    ]
    if with_fault:
        queries.append(
            Query(
                input="internet",
                id=f"boom#{tag}",
                scale=SERVICE_SCALE,
                n_faults=1,
                check_cadence=0,
                fault_kinds=("kernel-fail",),
                fault_seed=7,
            )
        )
    return queries


def _config(recorder_on: bool, pm_dir: Path) -> ServiceConfig:
    # Production defaults (notably the 5 s snapshot interval): the
    # point is the cost of the recorder the way it actually ships.
    recorder = RecorderConfig(dir=str(pm_dir)) if recorder_on else None
    return ServiceConfig(workers=WORKERS, recorder=recorder)


def _serve(recorder_on: bool, pm_dir: Path, tag: str, *, with_fault: bool = True):
    with MSTService(_config(recorder_on, pm_dir)) as svc:
        t0 = time.perf_counter()
        outs = svc.run_batch(_batch(tag, with_fault=with_fault))
        wall = time.perf_counter() - t0
    return outs, wall


def test_recorder_off(benchmark, tmp_path):
    outs = benchmark.pedantic(
        lambda: _serve(False, tmp_path, "off")[0], rounds=3, iterations=1
    )
    assert sum(1 for o in outs if o.ok) == len(INPUTS) * REPS


def test_recorder_on(benchmark, tmp_path):
    outs = benchmark.pedantic(
        lambda: _serve(True, tmp_path / "pm", "on")[0], rounds=3, iterations=1
    )
    assert sum(1 for o in outs if o.ok) == len(INPUTS) * REPS
    # The seeded fault dropped a postmortem bundle while being timed.
    assert list((tmp_path / "pm").glob("PM_*.bundle"))


def test_recorder_does_not_perturb_results(benchmark, tmp_path):
    """Solver outputs must be bit-identical with the recorder on."""

    def both():
        off, _ = _serve(False, tmp_path, "x")
        on, _ = _serve(True, tmp_path / "pm", "x")
        return off, on

    off, on = benchmark.pedantic(both, rounds=1, iterations=1)
    assert [o.id for o in off] == [o.id for o in on]
    for a, b in zip(off, on):
        assert a.replay_identity() == b.replay_identity(), a.id
        assert a.error == b.error, a.id


def _best_walls(pm_dir: Path, *, rounds: int, with_fault: bool) -> dict:
    walls: dict[str, list[float]] = {"off": [], "on": []}
    # Interleave so drift hits both arms equally; skip round 0 (warmup).
    # Best-of-rounds, not median: batches run ~20 ms, where worker
    # scheduling jitter swamps the median but the minimum converges.
    tag = "f" if with_fault else "p"
    for r in range(rounds + 1):
        for arm in ("off", "on"):
            _, wall = _serve(
                arm == "on",
                pm_dir / f"{arm}{tag}{r}",
                f"{arm}{tag}{r}",
                with_fault=with_fault,
            )
            if r > 0:
                walls[arm].append(wall)
    best = {k: min(v) for k, v in walls.items()}
    return {
        "wall_seconds_off": best["off"],
        "wall_seconds_on": best["on"],
        "overhead_ratio": best["on"] / best["off"] - 1.0,
    }


def measure_overhead(pm_dir: Path, *, rounds: int = 9) -> dict:
    """Best-of-rounds serve wall with the recorder off vs on.

    The headline ``overhead_ratio`` is passive cost: an all-ok batch
    where the recorder only feeds its rings (the steady state the <5%
    target is about).  ``capture`` adds one seeded-fault query per
    batch, so each recorder-on round also pays a bundle write — the
    incident path, reported separately because it only runs when
    something is already broken.
    """
    passive = _best_walls(pm_dir, rounds=rounds, with_fault=False)
    capture = _best_walls(pm_dir, rounds=rounds, with_fault=True)
    return {
        "rounds": rounds,
        "queries_per_batch": len(INPUTS) * REPS,
        **passive,
        "capture": {"queries_per_batch": len(INPUTS) * REPS + 1, **capture},
    }


def test_overhead_artifact(benchmark, out_dir, tmp_path):
    result = benchmark.pedantic(
        lambda: measure_overhead(tmp_path, rounds=3), rounds=1, iterations=1
    )
    # Wall-clock bound kept loose for noisy CI runners; EXPERIMENTS.md
    # records the measured figure against the <5% target.
    assert result["overhead_ratio"] < 0.25, result
    write_artifact(
        out_dir,
        "recorder_overhead.json",
        json.dumps(result, indent=2, sort_keys=True),
    )
