"""Fault injection, online invariant checking, and recovery.

The robustness layer of the simulated GPU substrate:

* :mod:`~repro.resilience.faults` — seeded deterministic
  :class:`FaultPlan`/:class:`FaultInjector` the Device consults to
  inject transient faults (bit flips, lost/doubled/permuted atomics,
  failed launches);
* :mod:`~repro.resilience.invariants` — cheap vectorized online checks
  over live solver state, raising typed
  :class:`~repro.errors.InvariantViolation`;
* :mod:`~repro.resilience.checkpoint` — per-round solver-state
  snapshots for rollback;
* :mod:`~repro.resilience.recovery` — the detection/recovery ladder
  (rollback-and-retry → phase restart with forced checks → serial
  Kruskal fallback), configured by :class:`ResilienceConfig`;
* :mod:`~repro.resilience.campaign` — chaos campaigns reporting
  injected/detected/recovered/escaped counts (``repro-mst chaos``),
  including the chaos-under-load *service* campaign;
* :mod:`~repro.resilience.policy` — the overload-safe **serving**
  policy (admission control/load shedding, per-graph circuit
  breakers, poison-query quarantine), attached to the service via
  ``ServiceConfig.policy``.
"""

from .campaign import (
    CampaignReport,
    ServiceCampaignReport,
    TrialOutcome,
    run_campaign,
    run_service_campaign,
)
from .checkpoint import Checkpoint
from .faults import (
    ATOMIC_FAULT_KINDS,
    FAULT_KINDS,
    LAUNCH_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from .invariants import KERNEL_INVARIANTS, ROUND_INVARIANTS, InvariantChecker
from .policy import (
    AdmissionController,
    CircuitBreaker,
    PolicyConfig,
    Quarantine,
    ResiliencePolicy,
    TokenBucket,
)
from .recovery import ResilienceConfig, ResilienceStats, RoundGuard

__all__ = [
    "ATOMIC_FAULT_KINDS",
    "AdmissionController",
    "CampaignReport",
    "Checkpoint",
    "CircuitBreaker",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InvariantChecker",
    "KERNEL_INVARIANTS",
    "LAUNCH_FAULT_KINDS",
    "PolicyConfig",
    "Quarantine",
    "ROUND_INVARIANTS",
    "ResilienceConfig",
    "ResiliencePolicy",
    "ResilienceStats",
    "RoundGuard",
    "ServiceCampaignReport",
    "TokenBucket",
    "TrialOutcome",
    "run_campaign",
    "run_service_campaign",
]
