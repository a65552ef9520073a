"""ECL-MST host-side driver (Section 3.3).

Orchestrates the kernels per the paper: without filtering, one
populate + the Alg.-2 while loop; with filtering, phase 1 under the
sampled weight bound, then a second populate with the condition
inverted and endpoints rewritten to representatives (the filter), then
phase 2.  Also provides the topology-driven loop used by the ablation.

Resilience (optional, zero-overhead when off): passing a
:class:`~repro.resilience.recovery.ResilienceConfig` wraps every round
in checkpoint/invariant-check/rollback protection, and passing a
:class:`~repro.resilience.faults.FaultPlan` arms the simulated device
with deterministic transient faults — see :mod:`repro.resilience`.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import DeadlineExceeded
from ..graph.csr import CSRGraph
from ..gpusim.atomics import KEY_INFINITY, atomic_min_u64, pack_keys
from ..gpusim.costmodel import Device
from ..gpusim.spec import GPUSpec, RTX_3080_TI
from ..obs.events import NULL_EVENTS, get_event_log, new_run_id
from ..obs.trace import NULL_TRACER
from . import costs
from .config import EclMstConfig
from .filtering import FilterPlan, plan_filtering
from .kernels import (
    MstState,
    kernel1_reserve,
    kernel2_union,
    kernel3_reset,
    kernel_init_populate,
)
from .result import MstResult, RoundStats

__all__ = ["ecl_mst"]


def _check_deadline(deadline: float | None, rounds: int) -> None:
    """Round-boundary deadline check (the invariant-sweep cadence).

    ``deadline`` is a ``time.perf_counter`` timestamp; crossing it
    aborts the run with :class:`DeadlineExceeded` instead of burning
    worker time on an answer nobody is waiting for.
    """
    if deadline is not None and time.perf_counter() > deadline:
        raise DeadlineExceeded(
            f"query deadline expired entering round {rounds}"
        )


def _run_data_driven_loop(
    state: MstState,
    weight_of_edge: np.ndarray,
    round_log: list[RoundStats] | None = None,
    guard=None,
    events=NULL_EVENTS,
    deadline: float | None = None,
) -> int:
    """The Alg.-2 while loop; returns the number of rounds executed."""
    tracer = state.device.tracer
    rounds = 0
    while len(state.wl.front):
        rounds += 1
        _check_deadline(deadline, rounds)
        entries = len(state.wl.front)

        def body(rounds=rounds, entries=entries):
            with tracer.span(f"round {rounds}", kind="round", entries=entries) as sp:
                survivors = kernel1_reserve(state)
                state.wl.swap()
                # The while condition is a worklist-size flag copied back
                # to the host — one round trip per round (bounded by
                # O(log |V|)).
                state.device.host_sync()
                added = 0
                if len(state.wl.front):
                    added = kernel2_union(state)
                    kernel3_reset(state)
                tracer.annotate(survivors=survivors, added=added)
            if events.enabled:
                events.emit(
                    "solver.round",
                    level="debug",
                    round=rounds,
                    entries=entries,
                    survivors=survivors,
                    added=added,
                    span=getattr(sp, "id", 0),
                )
            return RoundStats(entries=entries, survivors=survivors, added=added)

        stats = body() if guard is None else guard.run_round(state, body, rounds)
        if round_log is not None:
            round_log.append(stats)
    return rounds


def _run_topology_driven_loop(
    state: MstState,
    threshold: int | None,
    phase: int,
    weight_of_edge: np.ndarray,
    guard=None,
    events=NULL_EVENTS,
    deadline: float | None = None,
) -> int:
    """De-optimized loop: every round rescans all candidate edges.

    The candidate set (direction/threshold masks) is fixed per phase;
    no worklist exists, so the same entries — including long-dead
    cycle edges — are found and discarded again each round.
    """
    g, cfg = state.graph, state.config
    src = g.edge_sources().astype(np.int64)
    dst = g.col_idx.astype(np.int64)
    w = g.weights.astype(np.int64)
    eid = g.edge_ids.astype(np.int64)
    mask = src < dst if cfg.single_direction else np.ones(src.size, dtype=bool)
    if threshold is not None:
        mask &= (w < threshold) if phase == 1 else (w >= threshold)
    from .worklist import EdgeList

    all_entries = EdgeList(src[mask], dst[mask], w[mask], eid[mask])

    tracer = state.device.tracer
    rounds = 0
    while True:
        rounds += 1
        _check_deadline(deadline, rounds)

        def body(rounds=rounds):
            with tracer.span(
                f"round {rounds}", kind="round", entries=len(all_entries)
            ) as sp:
                state.wl.fill_front(all_entries)
                survivors = kernel1_reserve(state)
                # Topology-driven k1 does not build a worklist; the swap
                # is a no-op structurally, but the reservations are in
                # minEdge.
                state.wl.swap()
                state.wl.front = all_entries  # k2/k3 rescan everything
                state.device.host_sync()  # did-anything-change flag
                tracer.annotate(survivors=survivors)
                if survivors:
                    kernel2_union(state)
                    kernel3_reset(state)
            if events.enabled:
                events.emit(
                    "solver.round",
                    level="debug",
                    round=rounds,
                    entries=len(all_entries),
                    survivors=survivors,
                    span=getattr(sp, "id", 0),
                )
            return survivors

        survivors = (
            body() if guard is None else guard.run_round(state, body, rounds)
        )
        if survivors == 0:
            # Matches the data-driven launch count: the loop only
            # learns it is done from an empty reservation round.
            break
    state.wl.front = type(all_entries).empty()
    return rounds


def ecl_mst(
    graph: CSRGraph,
    config: EclMstConfig | None = None,
    *,
    gpu: GPUSpec = RTX_3080_TI,
    verify: bool = False,
    tracer=None,
    resilience=None,
    fault_plan=None,
    events=None,
    deadline: float | None = None,
) -> MstResult:
    """Compute the MSF of ``graph`` with ECL-MST on the simulated GPU.

    Parameters
    ----------
    graph:
        Undirected weighted :class:`CSRGraph`.  Multiple connected
        components are fine (an MSF is produced), unlike the Jucele and
        Gunrock baselines.
    config:
        Optimization toggles; defaults to the fully-optimized code.
    gpu:
        Hardware spec for the cost model (Titan V for System 1 rows,
        RTX 3080 Ti for System 2 rows).
    verify:
        Re-check the result against serial Kruskal, as the paper's
        artifact does after every run (not charged to the runtime).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` recording nested
        ``run > phase > round > kernel`` spans.  ``None`` (the default)
        traces nothing and adds no overhead; tracing never changes the
        computed MSF or the modeled counters.
    resilience:
        Optional :class:`~repro.resilience.recovery.ResilienceConfig`
        enabling per-round checkpointing, online invariant checks, and
        the rollback → phase-restart → serial-fallback recovery ladder.
        ``None`` (the default) — and any config with checking off on a
        fault-free run — leaves results and counters bit-identical.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` of seeded
        deterministic transient faults for the device to inject
        (chaos/robustness testing).
    events:
        Optional :class:`~repro.obs.events.EventLog` receiving
        phase/round transition events (and resilience events when the
        run is guarded), all bound to a fresh run correlation ID.
        ``None`` (the default) falls back to the process-global log
        configured by the ``--log-level/--log-json`` CLI flags, which
        is the zero-overhead :data:`~repro.obs.events.NULL_EVENTS`
        unless telemetry was turned on.  Emitting events never changes
        the computed MSF or the modeled counters.
    deadline:
        Optional ``time.perf_counter`` timestamp.  Checked at every
        round boundary (the same cadence as the invariant sweeps);
        once crossed the run aborts with
        :class:`~repro.errors.DeadlineExceeded` — the serving layer
        propagates per-query deadlines here so a query that already
        missed its timeout stops consuming the worker.  ``None`` (the
        default) never checks and adds no overhead.

    Returns
    -------
    MstResult
        With per-kernel counters and modeled computation time.  After a
        recovery fallback, ``algorithm`` is tagged
        ``"ecl-mst+serial-fallback"`` and ``extra["resilience"]``
        records the ladder's actions.
    """
    config = config or EclMstConfig()
    tracer = tracer if tracer is not None else NULL_TRACER
    events = events if events is not None else get_event_log()
    if events.enabled:
        events = events.bind(run=new_run_id())
    injector = None
    if fault_plan is not None:
        from ..resilience.faults import FaultInjector

        injector = FaultInjector(fault_plan)
        injector.events = events
        injector.tracer = tracer
    device = Device(gpu, tracer=tracer, fault_injector=injector)
    plan = plan_filtering(graph, config)
    round_log: list[RoundStats] = []
    rounds_total = 0

    def _run_phase(threshold: int | None, phase_no: int) -> int:
        kernel_init_populate(state, threshold, phase=phase_no)
        if config.data_driven:
            return _run_data_driven_loop(
                state, weight_of_edge, round_log, guard=guard, events=events,
                deadline=deadline,
            )
        return _run_topology_driven_loop(
            state, threshold, phase_no, weight_of_edge, guard=guard,
            events=events, deadline=deadline,
        )

    def _guarded_phase(label: str, threshold: int | None, phase_no: int) -> int:
        """One phase under the recovery ladder's rung 2 (restart with
        invariants forced on) and rung 3 (serial fallback)."""
        if guard is None:
            return _run_phase(threshold, phase_no)
        from ..resilience.checkpoint import Checkpoint
        from ..resilience.recovery import (
            PhaseRestartRequired,
            SerialFallbackRequired,
        )

        def _escalation(exc) -> bool:
            # Faults surfacing here escaped the per-round guard (e.g. a
            # fault during the populate launch) — treat them as an
            # immediate phase-restart trigger.
            if isinstance(exc, PhaseRestartRequired):
                return True
            if guard.handles(exc):
                guard.note_phase_fault(exc)
                return True
            return False

        cp = Checkpoint.capture(state)
        log_mark = len(round_log)
        try:
            return _run_phase(threshold, phase_no)
        except Exception as exc:
            if not _escalation(exc):
                raise
            guard.note_phase_restart(label)
            cp.restore(state)
            del round_log[log_mark:]
            try:
                return _run_phase(threshold, phase_no)
            except Exception as exc2:
                if not _escalation(exc2):
                    raise
                raise SerialFallbackRequired from exc2

    def _phase_events(label: str, span, threshold) -> None:
        if events.enabled:
            events.emit(
                "solver.phase",
                phase=label,
                threshold=threshold,
                span=getattr(span, "id", 0),
            )

    fell_through = False
    if events.enabled:
        events.emit(
            "solver.run.start",
            graph=graph.name,
            vertices=graph.num_vertices,
            edges=graph.num_edges,
            filtering=plan.active,
        )
    with tracer.span(
        f"ecl-mst on {graph.name}",
        kind="run",
        algorithm="ecl-mst",
        graph=graph.name,
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        filtering=plan.active,
    ):
        # Host-side setup under its own span so the simulator's own
        # Python cost (state arrays, weight table) shows up in
        # host_hotspots alongside the modeled time.
        with tracer.span("build state", kind="host"):
            state = MstState.create(graph, config, device)
            if injector is not None:
                injector.bind_state(state)
            weight_of_edge = graph.edge_weight_table()

        guard = None
        if resilience is not None:
            from ..resilience.recovery import RoundGuard

            guard = RoundGuard(
                resilience,
                tracer=tracer,
                events=events,
                reference_mask=getattr(resilience, "_reference_mask", None),
            )
            guard.bind(state, weight_of_edge)
            device.probe = guard

        try:
            if plan.active:
                with tracer.span(
                    "phase 1", kind="phase", threshold=plan.threshold
                ) as sp1:
                    _phase_events("phase 1", sp1, plan.threshold)
                    rounds_total += _guarded_phase(
                        "phase 1", plan.threshold, 1
                    )
                with tracer.span(
                    "phase 2", kind="phase", threshold=plan.threshold
                ) as sp2:
                    _phase_events("phase 2", sp2, plan.threshold)
                    rounds_total += _guarded_phase(
                        "phase 2", plan.threshold, 2
                    )
            else:
                with tracer.span("main phase", kind="phase") as sp0:
                    _phase_events("main phase", sp0, None)
                    rounds_total += _guarded_phase("main phase", None, 0)
        except Exception as exc:
            from ..resilience.recovery import SerialFallbackRequired

            if guard is not None and isinstance(exc, SerialFallbackRequired):
                fell_through = True
            else:
                raise
        tracer.annotate(rounds=rounds_total)

    sel = state.in_mst
    algorithm = "ecl-mst"
    degraded = False
    if guard is not None:
        sel, degraded = guard.finalize(graph, sel, fell_through)
        if degraded:
            algorithm = "ecl-mst+serial-fallback"
        if tracer.enabled:
            tracer.roots[-1].annotate(
                resilience_detected=guard.stats.detected,
                resilience_fallback=degraded,
            )

    total_weight = int(weight_of_edge[sel].sum(dtype=np.int64))
    # Host<->device traffic for the "memcpy" rows: CSR down, edge mask up.
    graph_bytes = (
        4.0 * (graph.num_vertices + 1) + 8.0 * graph.num_directed_edges
    )
    result_bytes = float(graph.num_edges)
    memcpy = device.memcpy_seconds(graph_bytes) + device.memcpy_seconds(result_bytes)

    extra: dict = {
        "filter_plan": plan,
        "config": config,
        "round_log": round_log,
        # The spec the run was priced with, so RunProfile can attribute
        # kernel time against the right roofline without re-plumbing it.
        "gpu_spec": gpu,
    }
    if guard is not None:
        extra["resilience"] = guard.stats.to_dict()
    if injector is not None:
        extra["fault_injection"] = injector.summary()

    result = MstResult(
        graph=graph,
        in_mst=sel.copy(),
        total_weight=total_weight,
        num_mst_edges=int(np.count_nonzero(sel)),
        rounds=rounds_total,
        modeled_seconds=device.elapsed_seconds,
        counters=device.counters,
        memcpy_seconds=memcpy,
        algorithm=algorithm,
        # ``round_log`` is the deprecated alias of ``round_stats``:
        # same RoundStats records (dict-style access still works).
        extra=extra,
        round_stats=round_log,
    )
    if events.enabled:
        events.emit(
            "solver.run.done",
            graph=graph.name,
            rounds=rounds_total,
            mst_edges=result.num_mst_edges,
            total_weight=result.total_weight,
            modeled_seconds=result.modeled_seconds,
            degraded=degraded,
        )
    if verify:
        from .verify import verify_mst

        with tracer.span("verify", kind="host"):
            verify_mst(result)
    return result
