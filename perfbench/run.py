#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-rmat --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` installs the per-layer hooks and reports the per-layer
metrics instead.  ``--workload all`` runs every workload, untraced and
(with ``--trace 1``) traced, and also prints the tracing overhead.  The
last stdout line is one JSON object; the lines above it are a
human-readable table.  Exit code 0 means the run completed (``correct``
says whether every output matched the reference); anything else means
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_program():
    """Import the program from this checkout's source tree, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


@contextmanager
def one_cpu():
    """Run the process on one CPU inside the block, if the OS allows it.

    CPython's GIL keeps a multi-threaded workload to one core's worth of
    work anyway; spread over two virtual CPUs, every GIL handoff waits
    for the other vCPU to be scheduled, which made serve-batch swing
    between 70 and 137 queries/s from run to run.  Single-threaded
    workloads stay unpinned, so the scheduler can move them off a vCPU
    the host is stealing time from.
    """
    try:
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(saved)})
    except (AttributeError, OSError) as exc:  # not Linux, or not permitted
        print(f"perfbench: running unpinned ({exc})")
        saved = None
    try:
        yield
    finally:
        if saved:
            os.sched_setaffinity(0, saved)


def declared() -> dict:
    """The metric declarations of ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, **sizes):
    """Set up ``SETUP_REPEATS`` times, then run once; returns the JSON dict."""
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    with one_cpu() if cls.single_cpu else nullcontext():
        return _run(cls, name, seed, seconds, trace, sizes)


def _run(cls, name, seed, seconds, trace, sizes):
    from perfbench import metrics
    from perfbench.probe import NOMINAL_MS, HostSpeed
    from perfbench.trace import analyze
    from perfbench.workloads import traced_run

    # Set-up times are normalized to the probe's host speed, like the
    # timed run's (see probe.py).
    setup_s: list[float] = []
    reference_s: list[float] = []
    workload = None
    host = HostSpeed()
    host.mark()
    for k in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = cls(seed, **sizes)
        t = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - t
        host.mark()
        setup_s.append(elapsed * host.scale(k))
        reference_s += workload.reference_s
    try:
        if trace:
            stats, rec = traced_run(workload, seconds)
            table = analyze(rec.spans)
            metrics.check_fired(name, table)
            counts = workload.layer_counts(stats, rec)
            values = metrics.per_layer(stats, table, counts, reference_s, len(rec.spans))
        else:
            stats = workload.run(seconds)
            values = metrics.end_to_end(stats, setup_s)
            p99 = metrics.quantile_ms(stats.latencies, 99)
            print(f"{name}: latency_p99_ms {p99:.6g} ms over {len(stats.latencies)} "
                  "samples (ungated)")
            raw = metrics.quantile_ms(stats.raw_latencies, 50)
            print(f"{name}: host probe median {stats.probe_ms:.4g} ms (nominal "
                  f"{NOMINAL_MS:g}); raw wall latency_p50 {raw:.6g} ms, "
                  f"{stats.attempted / stats.wall_s:.6g} ops/s over {stats.wall_s:.4g} s")
    finally:
        workload.close()
    return {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": values,
    }


def with_units(values: dict, decl: list[dict]) -> dict:
    """Attach declared units; the computed and declared names must match."""
    names = [m["name"] for m in decl]
    if sorted(values) != sorted(names):
        missing = set(names) - set(values)
        extra = set(values) - set(names)
        raise RuntimeError(f"metric mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in decl}


def print_table(title: str, out: dict) -> None:
    print(f"== {title}: attempted {out['attempted']}, failed {out['failed']}")
    for name, m in out["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    args = _parse(argv)
    _load_program()
    from perfbench.workloads import WORKLOADS

    decl = declared()
    if args.workload == "all":
        report = {}
        for name in WORKLOADS:
            plain = run_workload(name, args.seed, args.seconds, False)
            plain["metrics"] = with_units(plain["metrics"], decl["end_to_end"])
            print_table(f"{name} (untraced)", plain)
            report[name] = plain
            if args.trace:
                traced = run_workload(name, args.seed, args.seconds, True)
                traced["metrics"] = with_units(traced["metrics"], decl["per_layer"])
                print_table(f"{name} (traced)", traced)
                for e2e, tr in (("latency_p50_ms", "trace.latency_p50_ms"),
                                ("throughput_ops_s", "trace.throughput_ops_s")):
                    base = plain["metrics"][e2e]["value"]
                    diff = traced["metrics"][tr]["value"] - base
                    print(f"  tracing overhead on {e2e}: {diff:+.4g} ({diff / base:+.1%})")
                report[f"{name}.traced"] = traced
        print(json.dumps(report))
        return 0
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out["metrics"] = with_units(out["metrics"], decl["per_layer" if args.trace else "end_to_end"])
    print_table(args.workload, out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
