"""Chaos campaigns: many seeded fault-injected runs, one verdict.

A campaign runs :func:`~repro.core.eclmst.ecl_mst` repeatedly against
one graph with resilience enabled, injecting a deterministic fault (or
several) per trial across every fault model, and classifies each trial:

* **benign**    — fault fired but the result still matches the serial
  Kruskal reference with no detector involvement (e.g. a permuted
  atomic schedule, or a bit flip in a slot the run never reads again);
* **recovered** — a detector (device fault, invariant, or end-of-run
  verify) fired and the returned result matches the reference;
* **escaped**   — the returned result differs from the reference and
  *no* detector fired: silent corruption.  The headline metric — it
  must be zero for the shipped invariant set.

Fault-free dry runs bound the launch/atomic horizons so every planned
fault lands inside the run, and the reference mask is computed once
and shared across trials.

:func:`run_service_campaign` is the chaos-under-**load** variant: it
drives a policy-armed :class:`~repro.service.engine.MSTService` with
oversubscribed concurrent chaos queries on slowed modeled hardware,
deliberately trips the quarantine and the circuit breaker, then
verifies the overload-safety contract — every query resolves to
exactly one *typed* outcome, nothing hangs, nothing escapes (every
``ok``/``degraded`` answer matches the serial reference), and the
breaker both opens and recovers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.config import EclMstConfig
from ..core.eclmst import ecl_mst
from ..core.verify import reference_mst_mask
from ..gpusim.spec import GPUSpec, RTX_3080_TI
from .faults import FAULT_KINDS, FaultPlan
from .policy import PolicyConfig
from .recovery import ResilienceConfig

__all__ = [
    "TrialOutcome",
    "CampaignReport",
    "run_campaign",
    "ServiceCampaignReport",
    "run_service_campaign",
]


@dataclass
class TrialOutcome:
    """Classification of one fault-injected run."""

    trial: int
    kinds: tuple[str, ...]
    injected: int
    detected: int
    detectors: tuple[str, ...]
    correct: bool
    fallback: bool
    rounds: int

    @property
    def escaped(self) -> bool:
        return not self.correct and self.detected == 0

    @property
    def benign(self) -> bool:
        return self.correct and self.detected == 0

    @property
    def recovered(self) -> bool:
        return self.correct and self.detected > 0


@dataclass
class CampaignReport:
    """Aggregated verdict of a whole campaign."""

    graph_name: str
    seed: int
    trials: list[TrialOutcome] = field(default_factory=list)

    @property
    def injected(self) -> int:
        return sum(t.injected for t in self.trials)

    @property
    def detected(self) -> int:
        return sum(t.detected for t in self.trials)

    @property
    def recovered(self) -> int:
        return sum(1 for t in self.trials if t.recovered)

    @property
    def benign(self) -> int:
        return sum(1 for t in self.trials if t.benign)

    @property
    def escaped(self) -> int:
        return sum(1 for t in self.trials if t.escaped)

    @property
    def fallbacks(self) -> int:
        return sum(1 for t in self.trials if t.fallback)

    def by_kind(self) -> dict[str, dict[str, int]]:
        """Per-fault-model injected/recovered/benign/escaped counts."""
        out: dict[str, dict[str, int]] = {}
        for t in self.trials:
            for kind in t.kinds:
                row = out.setdefault(
                    kind,
                    {"trials": 0, "injected": 0, "recovered": 0, "benign": 0, "escaped": 0},
                )
                row["trials"] += 1
                row["injected"] += t.injected
                row["recovered"] += int(t.recovered)
                row["benign"] += int(t.benign)
                row["escaped"] += int(t.escaped)
        return out

    def to_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "seed": self.seed,
            "trials": len(self.trials),
            "injected": self.injected,
            "detected": self.detected,
            "recovered": self.recovered,
            "benign": self.benign,
            "escaped": self.escaped,
            "fallbacks": self.fallbacks,
            "by_kind": self.by_kind(),
        }

    def render(self) -> str:
        """Human-readable campaign table."""
        lines = [
            f"chaos campaign on {self.graph_name} (seed {self.seed}): "
            f"{len(self.trials)} trials, {self.injected} faults injected",
            "",
            f"{'fault model':<18} {'trials':>6} {'injected':>8} "
            f"{'recovered':>9} {'benign':>6} {'escaped':>7}",
        ]
        for kind in sorted(self.by_kind()):
            row = self.by_kind()[kind]
            lines.append(
                f"{kind:<18} {row['trials']:>6} {row['injected']:>8} "
                f"{row['recovered']:>9} {row['benign']:>6} {row['escaped']:>7}"
            )
        lines += [
            "",
            f"totals: {self.recovered} recovered, {self.benign} benign, "
            f"{self.fallbacks} serial fallbacks, {self.escaped} ESCAPED",
            (
                "verdict: PASS (no silent corruption escaped)"
                if self.escaped == 0
                else "verdict: FAIL (silent corruption escaped detection!)"
            ),
        ]
        return "\n".join(lines)


def run_campaign(
    graph,
    *,
    n_faults: int = 100,
    seed: int = 0,
    kinds: tuple[str, ...] = FAULT_KINDS,
    faults_per_trial: int = 1,
    config: EclMstConfig | None = None,
    resilience: ResilienceConfig | None = None,
    gpu: GPUSpec = RTX_3080_TI,
    progress=None,
) -> CampaignReport:
    """Inject at least ``n_faults`` faults across seeded trials.

    Trials run until the injected-fault total reaches ``n_faults`` (a
    planned fault can miss if the faulty run ends earlier than the dry
    run did), with a hard cap of ``4 * ceil(n_faults /
    faults_per_trial)`` trials.  ``progress`` is an optional callable
    receiving one line per trial.
    """
    config = config or EclMstConfig()
    resilience = resilience or ResilienceConfig()
    reference = reference_mst_mask(graph)
    # Frozen config: smuggle the precomputed reference past the
    # constructor so trials don't re-run serial Kruskal each time.
    object.__setattr__(resilience, "_reference_mask", reference)

    # Fault-free dry run: horizons for the plan generator, plus a
    # sanity check that the resilient driver agrees with the reference.
    dry_injector_plan = FaultPlan(seed=seed)
    dry = ecl_mst(
        graph, config, gpu=gpu, resilience=resilience,
        fault_plan=dry_injector_plan,
    )
    if not np.array_equal(dry.in_mst, reference):
        raise AssertionError(
            "fault-free resilient run disagrees with the serial reference"
        )
    fi = dry.extra["fault_injection"]
    launches, atomic_calls = fi["launches_seen"], fi["atomic_calls_seen"]

    report = CampaignReport(graph_name=graph.name, seed=seed)
    max_trials = 4 * -(-n_faults // faults_per_trial)
    trial = 0
    while report.injected < n_faults and trial < max_trials:
        # Rotate the kind offset per trial so every fault model appears
        # even at one fault per trial.
        trial_kinds = tuple(
            kinds[(trial + j) % len(kinds)] for j in range(faults_per_trial)
        )
        plan = FaultPlan.generate(
            seed=seed * 100_003 + trial,
            n_faults=faults_per_trial,
            launches=launches,
            atomic_calls=atomic_calls,
            kinds=trial_kinds,
        )
        result = ecl_mst(
            graph, config, gpu=gpu, resilience=resilience, fault_plan=plan
        )
        res = result.extra["resilience"]
        inj = result.extra["fault_injection"]
        outcome = TrialOutcome(
            trial=trial,
            kinds=trial_kinds,
            injected=inj["injected"],
            detected=res["detected"],
            detectors=tuple(
                sorted({d["detector"] for d in res["detections"]})
            ),
            correct=bool(np.array_equal(result.in_mst, reference)),
            fallback=res["fallbacks"] > 0,
            rounds=result.rounds,
        )
        if outcome.injected:
            report.trials.append(outcome)
        if progress is not None:
            status = (
                "escaped!"
                if outcome.escaped
                else "recovered"
                if outcome.recovered
                else "benign"
                if outcome.benign
                else "missed"
            )
            progress(
                f"trial {trial:>3} [{','.join(trial_kinds)}] "
                f"injected={outcome.injected} detected={outcome.detected} "
                f"{status}"
            )
        trial += 1
    return report


# ----------------------------------------------------------------------
# Chaos under load: the service-level campaign
# ----------------------------------------------------------------------

# Every status a ticket may legally resolve to.  Anything else is an
# "untyped" outcome and fails the campaign outright.
TYPED_STATUSES = (
    "ok",
    "degraded",
    "shed",
    "quarantined",
    "error",
    "timeout",
    "cancelled",
)


@dataclass
class ServiceCampaignReport:
    """Verdict of one chaos-under-load drill against the service.

    ``passed`` is the overload-safety contract: zero escaped faults
    (every served answer matches the serial reference), zero hung
    tickets, zero untyped outcomes, and — when the breaker drill ran —
    the breaker both opened under poison traffic and recovered after
    its cooldown.
    """

    graph_name: str
    seed: int
    queries: int = 0
    statuses: dict[str, int] = field(default_factory=dict)
    served_by: dict[str, int] = field(default_factory=dict)
    escaped: int = 0
    hung: int = 0
    untyped: int = 0
    breaker_drill: bool = False
    breaker_opened: bool = False
    breaker_recovered: bool = False
    reference_weight: int = 0
    reference_edges: int = 0
    policy: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def observe(self, outcome, *, reference) -> None:
        """Classify one resolved ticket against the clean reference."""
        self.queries += 1
        status = outcome.status
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status not in TYPED_STATUSES:
            self.untyped += 1
        if status in ("ok", "degraded"):
            if outcome.served_by:
                self.served_by[outcome.served_by] = (
                    self.served_by.get(outcome.served_by, 0) + 1
                )
            correct = (
                outcome.total_weight == reference.total_weight
                and outcome.num_mst_edges == reference.num_mst_edges
            )
            if not correct:
                self.escaped += 1

    @property
    def passed(self) -> bool:
        breaker_ok = not self.breaker_drill or (
            self.breaker_opened and self.breaker_recovered
        )
        return (
            self.escaped == 0
            and self.hung == 0
            and self.untyped == 0
            and breaker_ok
        )

    def to_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "seed": self.seed,
            "queries": self.queries,
            "statuses": dict(sorted(self.statuses.items())),
            "served_by": dict(sorted(self.served_by.items())),
            "escaped": self.escaped,
            "hung": self.hung,
            "untyped": self.untyped,
            "breaker_drill": self.breaker_drill,
            "breaker_opened": self.breaker_opened,
            "breaker_recovered": self.breaker_recovered,
            "passed": self.passed,
            "policy": self.policy,
        }

    def render(self) -> str:
        lines = [
            f"chaos-under-load campaign on {self.graph_name} "
            f"(seed {self.seed}): {self.queries} queries",
            "",
            f"{'outcome':<14} {'count':>6}",
        ]
        for status in TYPED_STATUSES:
            if status in self.statuses:
                lines.append(f"{status:<14} {self.statuses[status]:>6}")
        if self.served_by:
            lines.append("")
            lines.append(f"{'served by':<18} {'count':>6}")
            for via, count in sorted(self.served_by.items()):
                lines.append(f"{via:<18} {count:>6}")
        lines += [
            "",
            f"escaped={self.escaped} hung={self.hung} untyped={self.untyped}",
        ]
        if self.breaker_drill:
            lines.append(
                f"breaker: opened={self.breaker_opened} "
                f"recovered={self.breaker_recovered}"
            )
        lines.append(
            "verdict: PASS (overload-safety contract held)"
            if self.passed
            else "verdict: FAIL (overload-safety contract violated!)"
        )
        return "\n".join(lines)


def run_service_campaign(
    input: str = "internet",
    *,
    scale: float = 0.05,
    n_queries: int = 16,
    workers: int = 2,
    max_queue_depth: int = 4,
    slowdown: float = 2.0,
    seed: int = 0,
    policy: PolicyConfig | None = None,
    timeout_s: float = 60.0,
    progress=None,
) -> ServiceCampaignReport:
    """Drive a policy-armed service through an overload + poison drill.

    Four phases, all against one suite input:

    1. **Overload** — ``n_queries`` concurrent chaos queries (one
       injected fault each, guarded by the recovery ladder) at mixed
       priorities against a small queue on ``slowdown``× hardware;
       admission sheds the excess, the rest recover and answer.
    2. **Quarantine** — one deterministically failing spec (unguarded
       ``kernel-fail`` injection) submitted repeatedly until the
       quarantine entry forms and refuses it at submit.
    3. **Break** — distinct failing specs until the per-graph breaker
       opens; further traffic fails fast or degrades.
    4. **Recover** — healthy probes after the cooldown until one
       executes and closes the breaker.

    Every resolved ticket is classified against the clean serial
    reference; see :class:`ServiceCampaignReport` for the verdict.
    """
    from ..service.engine import MSTService, ServiceConfig, execute_query
    from ..service.query import Query

    if policy is None:
        policy = PolicyConfig(
            admission_rate=50.0,
            admission_burst=max(2, n_queries // 3),
            max_retries=2,
            backoff_base_s=0.001,
            backoff_cap_s=0.02,
            breaker_threshold=3,
            breaker_cooldown_s=0.15,
            serve_stale=True,
            degrade_serial=True,
            quarantine_after=2,
            seed=seed,
        )

    def say(line: str) -> None:
        if progress is not None:
            progress(line)

    reference = execute_query(
        Query(input=input, id="reference", scale=scale)
    )
    if not reference.ok:
        raise AssertionError(
            f"clean reference query failed: {reference.error}"
        )
    digest = reference.result_key.split(":", 1)[0]
    report = ServiceCampaignReport(
        graph_name=input,
        seed=seed,
        breaker_drill=policy.breaker_on,
        reference_weight=reference.total_weight,
        reference_edges=reference.num_mst_edges,
    )

    svc = MSTService(
        ServiceConfig(
            workers=workers,
            max_queue_depth=max_queue_depth,
            slowdown=slowdown,
            policy=policy,
        )
    )
    try:
        # Phase 1 — overload: oversubscribed concurrent chaos queries.
        say(f"phase 1: {n_queries} concurrent chaos queries (x{slowdown} slowdown)")
        resolved: dict[str, object] = {}

        def submit_and_wait(q: Query) -> None:
            resolved[q.id] = svc.submit(q).outcome()

        threads = []
        for i in range(n_queries):
            q = Query(
                input=input,
                id=f"load-{i}",
                scale=scale,
                priority=i % 3,
                check_cadence=2,
                fault_seed=seed * 1009 + i,
                n_faults=1,
                timeout_s=timeout_s,
            )
            th = threading.Thread(target=submit_and_wait, args=(q,), daemon=True)
            th.start()
            threads.append(th)
        for th in threads:
            th.join(timeout=3 * timeout_s)
            if th.is_alive():
                report.hung += 1
        for out in resolved.values():
            report.observe(out, reference=reference)
        say(
            "phase 1 done: "
            + " ".join(f"{k}={v}" for k, v in sorted(report.statuses.items()))
        )

        def drill(q: Query) -> object:
            out = svc.submit(q).outcome()
            report.observe(out, reference=reference)
            return out

        # Phase 2 — quarantine one deterministically failing spec.
        poison = dict(
            input=input,
            scale=scale,
            priority=2,
            check_cadence=0,  # unguarded: the injected fault escapes to a
            n_faults=1,  # typed error outcome every time
            fault_kinds=("kernel-fail",),
            timeout_s=timeout_s,
        )
        if policy.quarantine_on:
            time.sleep(0.1)  # let the admission bucket refill
            say("phase 2: quarantining a poison spec")
            for j in range(policy.quarantine_after + 1):
                out = drill(
                    Query(id=f"poison-{j}", fault_seed=seed + 777_001, **poison)
                )
                say(f"  poison-{j}: {out.status}")

        # Phase 3 — open the breaker with distinct failing specs.
        if policy.breaker_on:
            say("phase 3: tripping the circuit breaker")
            breaker = svc.policy.breaker(digest)
            for j in range(policy.breaker_threshold + 2):
                if breaker.state == "open":
                    break
                out = drill(
                    Query(
                        id=f"break-{j}",
                        fault_seed=seed + 888_001 + j,
                        **poison,
                    )
                )
                say(f"  break-{j}: {out.status} (breaker {breaker.state})")
            report.breaker_opened = any(
                to == "open" for _frm, to, _why in breaker.transitions
            )

            # Phase 4 — recover: healthy probes after the cooldown.
            say("phase 4: probing until the breaker closes")
            for k in range(40):
                out = drill(
                    Query(
                        input=input,
                        id=f"probe-{k}",
                        scale=scale,
                        priority=2,
                        timeout_s=timeout_s,
                    )
                )
                if out.status == "ok" and breaker.state == "closed":
                    report.breaker_recovered = True
                    say(f"  probe-{k}: ok (breaker closed)")
                    break
                time.sleep(0.05)

        report.policy = svc.policy.status() if svc.policy else {}
        report.metrics = svc.metrics()
    finally:
        svc.close()
    return report
