"""Multi-device sharded ECL-MST: partitioned Borůvka with a merge round.

The classic distributed-MSF recipe (forest sparsification, as in
filter-Kruskal and the merge-based distributed Borůvka variants):

1. **Partition** the vertices across ``shards`` simulated devices
   (:mod:`repro.shard.partition`) and give each device the induced
   subgraph of its *internal* edges.
2. **Local solve** — every device runs the unmodified single-GPU
   ECL-MST on its subgraph, producing a local minimum spanning
   *forest*.  Devices are independent, so modeled time for this stage
   is the max over devices, not the sum.
3. **Exchange** — each device ships its selected forest edges plus the
   *boundary* (cut) edges it owns to the coordinator over the
   inter-device link (:class:`~repro.gpusim.costmodel.LinkSpec`): an
   alpha-beta charge per device with data to send.
4. **Merge** — the coordinator runs one more ECL-MST over the
   received candidate set (local forests ∪ boundary edges) — the
   inter-shard graph with every shard contracted down to its forest —
   and that run's selection *is* the global MSF.

Correctness is the MSF *sparsification lemma* (cycle property): an
internal edge rejected by its shard's local MSF is the heaviest edge
on a cycle inside that shard — hence on a cycle of the whole graph —
so it can never be in the global MSF and is safe to discard.  The
converse does **not** hold (a locally-selected edge may still lose to
a cheaper path through another shard), which is why local selections
are *candidates* for the merge round, never final.  Because edge IDs
ascend in ``(lo, hi)`` vertex order both globally and in every
subgraph (see :func:`~repro.graph.build.from_edge_arrays`), weight
ties break identically at every level, and the sharded selection is
bit-identical to the single-device solver's — not just in total
weight and edge count but edge-for-edge.

Accounting (the acceptance invariant): ``modeled_seconds =
max_i(local_i) + exchange + merge``.  Each device's *exclusive share*
is its contribution to that critical path — the slowest device owns
the whole local stage, the coordinator (shard 0) owns the merge — so
``sum(exclusive shares) + exchange == modeled_seconds`` exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.result import MstResult, RoundStats
from ..gpusim.costmodel import DEFAULT_LINK, LinkSpec
from ..gpusim.counters import KernelCounters, RunCounters
from ..gpusim.spec import GPUSpec, RTX_3080_TI
from ..graph.build import from_edge_arrays
from ..graph.csr import CSRGraph
from ..obs.events import get_event_log, new_run_id
from ..obs.trace import NULL_TRACER
from .partition import Partition, ShardGraph, extract_shards, partition_graph

__all__ = ["sharded_mst", "BYTES_PER_EDGE"]

# Wire format of the exchange: an edge travels as four 32-bit words
# (u, v, weight, global edge ID).
BYTES_PER_EDGE = 16


def _clean_resilience(resilience):
    """Per-shard copy of a ResilienceConfig without the smuggled global
    reference mask (a local run must verify against its *own* subgraph,
    not the whole-graph Kruskal mask a campaign may have attached)."""
    if resilience is None:
        return None
    return dataclasses.replace(resilience)


def sharded_mst(
    graph: CSRGraph,
    config=None,
    *,
    shards: int,
    shard_strategy: str = "contiguous",
    gpu: GPUSpec = RTX_3080_TI,
    link: LinkSpec | None = None,
    verify: bool = False,
    tracer=None,
    resilience=None,
    fault_plan=None,
    events=None,
    deadline: float | None = None,
) -> MstResult:
    """Compute the MSF of ``graph`` across ``shards`` simulated devices.

    Same contract as :func:`~repro.core.eclmst.ecl_mst` (which
    delegates here for ``shards > 1``), plus:

    shards:
        Number of simulated devices (>= 1).  Each gets its own
        :class:`~repro.gpusim.costmodel.Device` with independent kernel
        counters; per-device kernels appear in the combined
        ``result.counters`` under a ``shard{i}/`` prefix (``merge/``
        for the coordinator's merge round), so roofline reports break
        down per device for free.
    shard_strategy:
        ``"contiguous"`` (degree-balanced ranges, the default) or
        ``"hash"`` — see :mod:`repro.shard.partition`.
    link:
        Inter-device interconnect pricing the exchange; defaults to
        :data:`~repro.gpusim.costmodel.DEFAULT_LINK`.
    fault_plan:
        Faults are scoped to *one* device — shard ``plan.seed %
        shards`` — so chaos campaigns kill a single device and the
        existing recovery ladder handles it locally.

    ``result.extra["shard"]`` carries the full breakdown: partition
    stats (``imbalance``, ``cut_edges``), stage times
    (``solve/comms/merge``), ``comms_time_share``, and one record per
    device with its exclusive share of the modeled critical path.
    """
    from ..core.eclmst import ecl_mst

    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    link = link or DEFAULT_LINK
    tracer = tracer if tracer is not None else NULL_TRACER
    events = events if events is not None else get_event_log()
    if events.enabled:
        events = events.bind(run=new_run_id())
        events.emit(
            "shard.run.start",
            graph=graph.name,
            shards=shards,
            strategy=shard_strategy,
        )

    local_resilience = _clean_resilience(resilience)
    fault_shard = (fault_plan.seed % shards) if fault_plan is not None else -1

    with tracer.span(
        f"sharded ecl-mst on {graph.name}",
        kind="run",
        algorithm="ecl-mst-sharded",
        graph=graph.name,
        shards=shards,
        strategy=shard_strategy,
    ):
        with tracer.span("partition", kind="host", strategy=shard_strategy):
            part: Partition = partition_graph(graph, shards, shard_strategy)
            shard_graphs: list[ShardGraph] = extract_shards(graph, part)
            u, v, w, eid = graph.undirected_edges()
            a = part.assignment
            boundary = a[u] != a[v] if u.size else np.zeros(0, dtype=bool)

        # ---- Stage 1: independent local solves, one device each. ----
        local: list[MstResult] = []
        for sg in shard_graphs:
            with tracer.span(
                f"shard {sg.shard}",
                kind="shard",
                shard=sg.shard,
                vertices=int(sg.vertices.size),
                edges=int(sg.graph.num_edges),
            ):
                local.append(
                    ecl_mst(
                        sg.graph,
                        config,
                        gpu=gpu,
                        tracer=tracer,
                        resilience=local_resilience,
                        fault_plan=(
                            fault_plan if sg.shard == fault_shard else None
                        ),
                        events=events,
                        deadline=deadline,
                    )
                )

        # Candidate mask: the union of local forest selections, lifted
        # back to global edge IDs.  Locally-*rejected* internal edges
        # are gone for good (the sparsification lemma); locally
        # selected ones still face the merge round.
        candidates = np.zeros(graph.num_edges, dtype=bool)
        for sg, res in zip(shard_graphs, local):
            if sg.eid_map.size:
                candidates[sg.eid_map[res.in_mst]] = True

        # ---- Stage 2: exchange over the inter-device link. -----------
        # Each device ships its forest edges plus the cut edges it owns
        # (the shard of the lower endpoint); the coordinator's gather
        # serializes the per-device transfers.
        owned_cut = (
            np.bincount(a[u[boundary]], minlength=shards)
            if boundary.any()
            else np.zeros(shards, dtype=np.int64)
        )
        forest_edges = np.array(
            [r.num_mst_edges for r in local], dtype=np.int64
        )
        per_device_edges = forest_edges + owned_cut.astype(np.int64)
        per_device_bytes = BYTES_PER_EDGE * per_device_edges
        comms_seconds = float(
            sum(link.transfer_seconds(float(b)) for b in per_device_bytes)
        )
        exchange_bytes = int(per_device_bytes.sum())
        with tracer.span(
            "boundary exchange",
            kind="shard",
            cut_edges=int(part.cut_edges),
            edges=int(per_device_edges.sum()),
            bytes=exchange_bytes,
            link=link.name,
            seconds=comms_seconds,
        ):
            pass
        if events.enabled:
            events.emit(
                "shard.exchange",
                cut_edges=int(part.cut_edges),
                edges=int(per_device_edges.sum()),
                bytes=exchange_bytes,
                seconds=comms_seconds,
            )

        # ---- Stage 3: merge round on the coordinator. ----------------
        # ECL-MST over (local forests ∪ boundary edges) on the global
        # vertex set: every shard is implicitly contracted to its
        # forest, and this run's selection is the final answer.  With
        # no cut edges the local forests already *are* the global MSF
        # (each shard solved a union of whole components) and the
        # merge is skipped.
        merge_res: MstResult | None = None
        if boundary.any():
            cand_und = candidates[eid] | boundary
            mu, mv, mw, meid = (
                u[cand_und],
                v[cand_und],
                w[cand_und],
                eid[cand_und],
            )
            with tracer.span(
                "merge",
                kind="shard",
                candidates=int(mu.size),
                cut_edges=int(part.cut_edges),
            ):
                merge_graph = from_edge_arrays(
                    graph.num_vertices,
                    mu.astype(np.int64),
                    mv.astype(np.int64),
                    mw,
                    name=f"{graph.name}/merge",
                )
                # from_edge_arrays assigns edge IDs in (lo, hi) order.
                merge_eid_map = meid[np.lexsort((mv, mu))].astype(np.int64)
                merge_res = ecl_mst(
                    merge_graph,
                    config,
                    gpu=gpu,
                    tracer=tracer,
                    resilience=local_resilience,
                    events=events,
                    deadline=deadline,
                )
            sel = np.zeros(graph.num_edges, dtype=bool)
            sel[merge_eid_map[merge_res.in_mst]] = True
        else:
            sel = candidates

    # ------------------------------------------------------------------
    # Assembly: combined result with per-device accounting.
    # ------------------------------------------------------------------
    local_seconds = [r.modeled_seconds for r in local]
    solve_seconds = max(local_seconds, default=0.0)
    critical_shard = int(np.argmax(local_seconds)) if local_seconds else 0
    merge_seconds = merge_res.modeled_seconds if merge_res is not None else 0.0
    modeled_seconds = solve_seconds + comms_seconds + merge_seconds
    comms_time_share = (
        comms_seconds / modeled_seconds if modeled_seconds > 0 else 0.0
    )

    counters = RunCounters()
    for sg, res in zip(shard_graphs, local):
        for k in res.counters.kernels:
            counters.add(
                dataclasses.replace(k, name=f"shard{sg.shard}/{k.name}")
            )
    exchange_counter = KernelCounters(
        name="shard_exchange",
        items=int(per_device_edges.sum()),
        bytes=float(exchange_bytes),
    )
    exchange_counter.modeled_seconds = comms_seconds
    counters.add(exchange_counter)
    if merge_res is not None:
        for k in merge_res.counters.kernels:
            counters.add(dataclasses.replace(k, name=f"merge/{k.name}"))

    devices = []
    for sg, res in zip(shard_graphs, local):
        exclusive = solve_seconds if sg.shard == critical_shard else 0.0
        if sg.shard == 0:
            exclusive += merge_seconds  # shard 0 hosts the coordinator
        devices.append(
            {
                "shard": sg.shard,
                "vertices": int(sg.vertices.size),
                "edges": int(sg.graph.num_edges),
                "local_seconds": float(res.modeled_seconds),
                "exclusive_seconds": float(exclusive),
                "forest_edges": int(res.num_mst_edges),
                "boundary_edges_sent": int(owned_cut[sg.shard]),
                "bytes_sent": int(per_device_bytes[sg.shard]),
                "launches": int(res.counters.num_launches),
                "rounds": int(res.rounds),
                "degraded": res.algorithm.endswith("+serial-fallback"),
            }
        )

    weight_of_edge = graph.edge_weight_table()
    total_weight = int(weight_of_edge[sel].sum(dtype=np.int64))
    rounds_total = max((r.rounds for r in local), default=0) + (
        merge_res.rounds if merge_res is not None else 0
    )
    # Devices load their partitions concurrently: memcpy is the max of
    # the local staging costs plus the coordinator's merge staging.
    memcpy = max((r.memcpy_seconds for r in local), default=0.0) + (
        merge_res.memcpy_seconds if merge_res is not None else 0.0
    )

    round_log: list[RoundStats] = []
    for res in local:
        round_log.extend(res.round_stats)
    if merge_res is not None:
        round_log.extend(merge_res.round_stats)

    degraded = any(d["degraded"] for d in devices) or (
        merge_res is not None
        and merge_res.algorithm.endswith("+serial-fallback")
    )
    algorithm = "ecl-mst-sharded" + ("+serial-fallback" if degraded else "")

    shard_extra = {
        "shards": shards,
        "strategy": shard_strategy,
        "link": {
            "name": link.name,
            "latency_us": link.latency_us,
            "bandwidth_gbs": link.bandwidth_gbs,
        },
        "imbalance": float(part.imbalance),
        "cut_edges": int(part.cut_edges),
        "internal_edges": int(graph.num_edges - part.cut_edges),
        "solve_seconds": float(solve_seconds),
        "comms_seconds": float(comms_seconds),
        "merge_seconds": float(merge_seconds),
        "comms_time_share": float(comms_time_share),
        "critical_shard": critical_shard,
        "exchange_bytes": exchange_bytes,
        "merge_edges": int(merge_res.graph.num_edges)
        if merge_res is not None
        else 0,
        "devices": devices,
    }

    extra: dict = {
        "config": config,
        "round_log": round_log,
        "gpu_spec": gpu,
        "shard": shard_extra,
    }
    merged_stats: dict = {}
    res_dicts = [
        r.extra["resilience"] for r in local if "resilience" in r.extra
    ]
    if merge_res is not None and "resilience" in merge_res.extra:
        res_dicts.append(merge_res.extra["resilience"])
    for d in res_dicts:
        for key, val in d.items():
            if isinstance(val, bool):
                merged_stats[key] = merged_stats.get(key, False) or val
            elif isinstance(val, (int, float)):
                merged_stats[key] = merged_stats.get(key, 0) + val
            elif isinstance(val, list):
                merged_stats.setdefault(key, []).extend(val)
            else:
                merged_stats.setdefault(key, val)
    if merged_stats:
        extra["resilience"] = merged_stats
    if fault_plan is not None and 0 <= fault_shard < len(local):
        fi = dict(local[fault_shard].extra.get("fault_injection") or {})
        fi["fault_shard"] = fault_shard
        extra["fault_injection"] = fi

    result = MstResult(
        graph=graph,
        in_mst=sel,
        total_weight=total_weight,
        num_mst_edges=int(np.count_nonzero(sel)),
        rounds=rounds_total,
        modeled_seconds=modeled_seconds,
        counters=counters,
        memcpy_seconds=memcpy,
        algorithm=algorithm,
        extra=extra,
        round_stats=round_log,
    )
    if events.enabled:
        events.emit(
            "shard.run.done",
            graph=graph.name,
            shards=shards,
            rounds=rounds_total,
            mst_edges=result.num_mst_edges,
            total_weight=result.total_weight,
            modeled_seconds=modeled_seconds,
            comms_time_share=comms_time_share,
            degraded=degraded,
        )
    if verify:
        from ..core.verify import verify_mst

        with tracer.span("verify", kind="host"):
            verify_mst(result)
    return result
