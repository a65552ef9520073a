"""The three benchmark workloads: set-up, timed loop and output checks.

Each workload derives all of its inputs from the benchmark seed
(``np.random.SeedSequence([seed, tag])``); the program only ever sees
the generated graphs and queries.  Calls into the program go through
module attributes (``eclmst.ecl_mst``, ``suite.build``) so that the
traced run's hooks see them.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

import numpy as np

from .probe import HostSpeed
from .reference import Reference, msf_reference
from .trace import SpanRecorder, instrument

ROAD_INPUT = "USA-road-d.NY"
RMAT_INPUT = "rmat22.sym"


def _modules():
    """The program modules the workloads call into (imported lazily so
    that the runner can check for the source tree first)."""
    names = ("repro.generators.suite", "repro.core.eclmst", "repro.core.verify")
    return [importlib.import_module(n) for n in names]


def derive(seed: int, tag: int, n: int) -> list[int]:
    """``n`` 31-bit seeds for one workload, reproducible from ``seed``."""
    state = np.random.SeedSequence([seed, tag]).generate_state(n)
    return [int(x) >> 1 for x in state]


def result_counts(result) -> dict:
    """Exact per-run counts of one ECL-MST result (no wall times)."""
    c = result.counters
    return {
        "rounds": int(result.rounds),
        "entries": sum(s.entries for s in result.round_stats),
        "added": sum(s.added for s in result.round_stats),
        "modeled_s": float(result.modeled_seconds),
        "directed_edges": int(result.graph.num_directed_edges),
        "launches": c.num_launches,
        "atomics": int(c.total("atomics")),
        "find_jumps": int(c.total("find_jumps")),
        "bytes": float(c.total("bytes")),
        "by_kernel": c.seconds_by_kernel(),
    }


def matches(result, ref: Reference) -> bool:
    """Whether one solver result is exactly the reference MSF."""
    return (
        result.in_mst.shape == ref.mask.shape
        and bool(np.array_equal(result.in_mst, ref.mask))
        and int(result.total_weight) == ref.total_weight
        and int(result.num_mst_edges) == ref.num_edges
    )


@dataclass
class RunStats:
    """What one timed run measured.

    The timed path is cut into intervals (one solver op, or one
    serve-batch batch) with a host-speed probe before and after each;
    an op's latency belongs to its interval.  ``finish`` converts the
    raw wall times to the probe's nominal host speed (see probe.py).
    """

    raw_latencies: list[float] = field(default_factory=list)  # wall s per op
    interval_of: list[int] = field(default_factory=list)  # per op
    intervals: list[float] = field(default_factory=list)  # wall s per interval
    latencies: list[float] = field(default_factory=list)  # nominal s per op
    busy_s: float = 0.0  # nominal seconds the timed intervals took
    wall_s: float = 0.0
    probe_ms: float = 0.0  # median probe time over the run
    attempted: int = 0
    failed: int = 0
    # Exact counts per distinct input (first occurrence), for the
    # modeled throughput and the core/gpusim counts.
    counts: dict = field(default_factory=dict)
    # Per-query serving details (serve-batch only).
    served_by: list[str] = field(default_factory=list)

    def finish(self, host: HostSpeed, wall_s: float) -> RunStats:
        scale = [host.scale(i) for i in range(len(self.intervals))]
        self.latencies = [t * scale[i] for t, i in zip(self.raw_latencies, self.interval_of)]
        self.busy_s = sum(t * k for t, k in zip(self.intervals, scale))
        self.wall_s = wall_s
        self.probe_ms = host.median_ms()
        return self


class _Workload:
    """Reference timing, trace counts and clean-up shared by workloads."""

    name = ""
    single_cpu = False  # run pinned to one CPU (see run.one_cpu)

    def __init__(self) -> None:
        self.reference_s: list[float] = []

    def _reference(self, graph) -> Reference:
        t = time.perf_counter()
        ref = msf_reference(graph)
        self.reference_s.append(time.perf_counter() - t)
        return ref

    def layer_counts(self, stats: RunStats, rec: SpanRecorder) -> list[dict]:
        """Solver counts for the per-layer metrics: one per distinct input."""
        return list(stats.counts.values())

    def close(self) -> None:
        pass


class _SolverWorkload(_Workload):
    """Shared timed loop for the single-threaded solver workloads."""

    min_ops = 1

    def op(self, i: int):
        """Run operation ``i``; returns ``(key, result, reference)``."""
        raise NotImplementedError

    def run(self, seconds: float, rec: SpanRecorder | None = None) -> RunStats:
        stats = RunStats()
        host = HostSpeed()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        host.mark()
        i = 0
        while i < self.min_ops or time.perf_counter() < deadline:
            ok = True
            start = time.perf_counter()
            try:
                if rec is None:
                    key, result, ref = self.op(i)
                else:
                    with rec.span("bench.op", op=i):
                        key, result, ref = self.op(i)
            except Exception as exc:  # a failed op is counted, not fatal
                print(f"{self.name}: op {i} failed: {exc!r}")
                ok = False
            elapsed = time.perf_counter() - start
            host.mark()
            stats.raw_latencies.append(elapsed)
            stats.interval_of.append(i)
            stats.intervals.append(elapsed)
            if ok:
                ok = matches(result, ref)
                if key not in stats.counts:
                    stats.counts[key] = result_counts(result)
            stats.attempted += 1
            stats.failed += not ok
            i += 1
        return stats.finish(host, time.perf_counter() - t0)


class PipelineRoad(_SolverWorkload):
    """Generate a road graph, solve it and verify it, per operation."""

    name = "pipeline-road"

    def __init__(self, seed: int, *, scale: float = 4.0, inputs: int = 4):
        super().__init__()
        self.scale = scale
        self.graph_seeds = derive(seed, 1, inputs)
        self.min_ops = inputs  # at least one full cycle of inputs
        self.suite, self.eclmst, self.verify = _modules()
        self.refs: dict[int, Reference] = {}

    def setup(self) -> None:
        for s in self.graph_seeds:
            g = self.suite.build(ROAD_INPUT, scale=self.scale, seed=s)
            self.refs[s] = self._reference(g)

    def op(self, i: int):
        s = self.graph_seeds[i % len(self.graph_seeds)]
        g = self.suite.build(ROAD_INPUT, scale=self.scale, seed=s)
        result = self.eclmst.ecl_mst(g)
        self.verify.verify_mst(result)
        return s, result, self.refs[s]


class SolveRmat(_SolverWorkload):
    """Prebuilt R-MAT graphs; each operation is one ``ecl_mst`` call.

    Operations cycle over every (graph, filter-sampling seed) pair.  The
    filter seed (``EclMstConfig.seed``) is the paper's Fig. 6 axis: one
    draw moves the phase-1 threshold several-fold, so a run averages
    over several draws and graphs instead of hanging on one.
    """

    name = "solve-rmat"

    def __init__(self, seed: int, *, scale: float = 8.0, graphs: int = 4,
                 filter_seeds: int = 16):
        super().__init__()
        from repro.core.config import EclMstConfig

        self.scale = scale
        seeds = derive(seed, 2, graphs + filter_seeds)
        self.graph_seeds = seeds[:graphs]
        self.configs = [EclMstConfig(seed=f) for f in seeds[graphs:]]
        self.min_ops = graphs * filter_seeds  # one full cycle of pairs
        self.suite, self.eclmst, _ = _modules()
        self.graphs: list = []
        self.refs: list[Reference] = []

    def setup(self) -> None:
        for s in self.graph_seeds:
            g = self.suite.build(RMAT_INPUT, scale=self.scale, seed=s)
            self.graphs.append(g)
            self.refs.append(self._reference(g))

    def op(self, i: int):
        k = i % self.min_ops
        gi, ci = k % len(self.graphs), k // len(self.graphs)
        result = self.eclmst.ecl_mst(self.graphs[gi], self.configs[ci])
        return k, result, self.refs[gi]


class ServeBatch(_Workload):
    """A two-worker ``MSTService`` driven by one closed-loop batch client.

    The client (the benchmark's own thread) submits a batch of queries,
    waits for every outcome, then submits the next batch; the host probe
    runs between batches, while the service is idle.  The query stream
    is seeded: suite inputs, Table-5 stages, a fresh filter seed per new
    spec, about a quarter with ``verify``, and a fixed share repeating
    one of the recent specs (served from the result cache or coalesced).
    Only the repeats can hit the cache, so the hit share stays near
    ``repeat_share`` and the latency median stays inside the executed
    queries' distribution instead of on the cliff between cached and
    executed ones.
    """

    name = "serve-batch"
    single_cpu = True
    scale = 0.06  # the service's default query scale
    workers = 2
    batch = 8
    repeat_share = 0.2
    verify_share = 0.25
    repeat_window = 64
    warm_seed = 2**31 - 1  # never drawn by the stream (31-bit draws < this)

    def __init__(self, seed: int, *, exact_prefix: int = 1024):
        super().__init__()
        from repro.core.config import DEOPT_STAGE_NAMES
        from repro.generators.suite import INPUT_NAMES

        # Leading queries whose outcomes define modeled_meps: always
        # completed, so the figure is exact for a seed.
        self.exact_prefix = exact_prefix
        self.inputs = INPUT_NAMES
        self.stages = (None,) + DEOPT_STAGE_NAMES
        (self.stream_seed,) = derive(seed, 3, 1)
        self.suite, _, _ = _modules()
        self.refs: dict[str, Reference] = {}
        self.service = None
        self._digests: dict[str, str] = {}

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        from repro.service import MSTService, Query, ServiceConfig

        for name in self.inputs:
            # The same graph the service builds for the query.
            self.refs[name] = self._reference(self.suite.build(name, scale=self.scale))
        self.service = MSTService(ServiceConfig(workers=self.workers))
        # Warm the graph cache with a filter seed the stream never uses,
        # so no stream spec starts out in the result cache.
        warm = [
            Query(input=n, id=f"warm-{n}", scale=self.scale,
                  config={"seed": self.warm_seed})
            for n in self.inputs
        ]
        for out in self.service.run_batch(warm):
            if not out.ok:
                raise RuntimeError(f"warm-up query {out.id} failed: {out.error}")

    def layer_counts(self, stats: RunStats, rec: SpanRecorder) -> list[dict]:
        """Every ``ecl_mst`` run the service executed in the traced run."""
        return [result_counts(r) for r in rec.results]

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    # -- the query stream -----------------------------------------------
    def stream(self):
        """Endless deterministic query stream."""
        from repro.service import Query

        rng = np.random.default_rng(self.stream_seed)
        history: list[dict] = []
        n = 0
        while True:
            if history and rng.random() < self.repeat_share:
                recent = history[-self.repeat_window:]
                spec = recent[int(rng.integers(len(recent)))]
            else:
                spec = {"input": self.inputs[int(rng.integers(len(self.inputs)))],
                        "scale": self.scale}
                stage = self.stages[int(rng.integers(len(self.stages)))]
                if stage is not None:
                    spec["stage"] = stage
                spec["config"] = {"seed": int(rng.integers(1, 2**31 - 1))}
                if rng.random() < self.verify_share:
                    spec["verify"] = True
                history.append(spec)
            yield Query.from_dict({**spec, "id": f"q{n}"})
            n += 1

    # -- checks -----------------------------------------------------------
    def check(self, out) -> bool:
        """An outcome is correct when ok, equal to the reference weight
        and edge count, and its digest agrees with every earlier one of
        the same input (the MSF is unique, whatever the config)."""
        ref = self.refs[out.input]
        if not (out.ok and out.total_weight == ref.total_weight
                and out.num_mst_edges == ref.num_edges):
            return False
        first = self._digests.setdefault(out.input, out.mst_digest)
        return first == out.mst_digest

    # -- the timed run ----------------------------------------------------
    def run(self, seconds: float, rec: SpanRecorder | None = None) -> RunStats:
        stats = RunStats()
        host = HostSpeed()
        stream = self.stream()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        host.mark()
        sent = 0
        while sent < self.exact_prefix or time.perf_counter() < deadline:
            queries = [next(stream) for _ in range(self.batch)]
            done = [0.0] * len(queries)
            start = time.perf_counter()
            tickets = []
            for j, q in enumerate(queries):
                t = self.service.submit(q)
                t.future.add_done_callback(
                    lambda _f, j=j: done.__setitem__(j, time.perf_counter())
                )
                tickets.append(t)
            outcomes, ends = [], []
            for j, t in enumerate(tickets):
                outcomes.append(t.outcome())
                # A future wakes its waiters before running callbacks, so
                # the callback may not have stamped this query yet.
                ends.append(done[j] or time.perf_counter())
            stats.intervals.append(time.perf_counter() - start)
            host.mark()
            for q, out, end in zip(queries, outcomes, ends):
                stats.raw_latencies.append(end - start)
                stats.interval_of.append(len(stats.intervals) - 1)
                stats.attempted += 1
                stats.failed += not self.check(out)
                stats.served_by.append(out.served_by)
                if sent < self.exact_prefix and out.ok:
                    stats.counts.setdefault(q.spec_key(), {
                        "modeled_s": float(out.modeled_seconds),
                        "directed_edges": self.refs[q.input].directed_edges,
                    })
                sent += 1
        return stats.finish(host, time.perf_counter() - t0)


WORKLOADS = {w.name: w for w in (PipelineRoad, SolveRmat, ServeBatch)}


def traced_run(workload, seconds: float) -> tuple[RunStats, SpanRecorder]:
    """One run with every hook installed."""
    rec = SpanRecorder()
    with instrument(rec, service=getattr(workload, "service", None)):
        stats = workload.run(seconds, rec)
    return stats, rec
