"""Detection-and-recovery ladder for the resilient ECL-MST driver.

The :class:`RoundGuard` wraps every Alg.-2 round:

1. **Checkpoint** the solver state at round entry.
2. Run the round; a :class:`~repro.errors.DeviceFault` (failed launch)
   or :class:`~repro.errors.InvariantViolation` (online check, at the
   configured cadence) triggers **rollback-and-retry**, up to
   :data:`MAX_RETRIES` attempts.  A retry does not wait: the device is
   simulated, and seeded faults are keyed by launch, not by time.
3. Retries exhausted → **phase restart**: the driver rolls back to the
   phase-entry checkpoint and reruns the whole phase with invariants
   forced on (per-kernel probes + every-round sweeps).
4. A restarted phase failing again → **serial fallback**: the result is
   replaced by the serial Kruskal reference (the paper's verifier,
   :func:`~repro.core.verify.reference_mst_mask`, cached on the graph),
   recorded as a degraded-mode completion.

An end-of-run **verify detector** (on whenever the guard is active)
compares the finished edge mask against the reference and falls back
on mismatch, so silent corruption that slipped past the invariants is
still caught — the "escaped" count a chaos campaign reports is
corruption that evades *all* of this.

Everything the ladder does is recorded in :class:`ResilienceStats`
(surfaced as ``result.extra["resilience"]`` and ``resilience.*``
metrics) and as ``recovery`` spans on the active tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.verify import reference_mst_mask
from ..errors import DeviceFault, InvariantViolation
from ..obs.events import NULL_EVENTS
from ..obs.trace import NULL_TRACER
from .checkpoint import Checkpoint
from .invariants import InvariantChecker

__all__ = [
    "ResilienceConfig",
    "ResilienceStats",
    "RoundGuard",
    "PhaseRestartRequired",
    "SerialFallbackRequired",
]

# Rollback-and-retry budget per round.
MAX_RETRIES = 2


class PhaseRestartRequired(Exception):
    """Internal escalation: retry budget exhausted, rerun the phase."""


class SerialFallbackRequired(Exception):
    """Internal escalation: degrade to the serial Kruskal reference."""


@dataclass(frozen=True)
class ResilienceConfig:
    """The one knob of the detection/recovery ladder.

    ``check_cadence=0`` disables the per-round invariant sweeps (and
    round checkpointing with them): a fault-free run is then bit- and
    counter-identical to a plain :func:`~repro.core.eclmst.ecl_mst`
    run with zero overhead.  The retry budget and serial fallback are
    fixed (module constants).
    """

    check_cadence: int = 1  # rounds between invariant sweeps; 0 = off


@dataclass
class ResilienceStats:
    """Counters of everything the ladder observed and did."""

    checks_run: int = 0
    invariant_violations: int = 0
    device_faults: int = 0
    rollbacks: int = 0
    retries: int = 0
    phase_restarts: int = 0
    verify_detections: int = 0
    fallbacks: int = 0
    detections: list = field(default_factory=list)

    @property
    def detected(self) -> int:
        """Total detection events (any detector)."""
        return (
            self.invariant_violations
            + self.device_faults
            + self.verify_detections
        )

    def to_dict(self) -> dict:
        return {
            "checks_run": self.checks_run,
            "invariant_violations": self.invariant_violations,
            "device_faults": self.device_faults,
            "rollbacks": self.rollbacks,
            "retries": self.retries,
            "phase_restarts": self.phase_restarts,
            "verify_detections": self.verify_detections,
            "fallbacks": self.fallbacks,
            "detected": self.detected,
            "detections": list(self.detections),
        }


class RoundGuard:
    """Per-round checkpoint/check/retry wrapper threaded through the
    driver; also serves as the Device's per-kernel probe."""

    def __init__(
        self,
        cfg: ResilienceConfig,
        *,
        tracer=None,
        events=None,
    ) -> None:
        self.cfg = cfg
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.events = events if events is not None else NULL_EVENTS
        self.stats = ResilienceStats()
        self.checker = InvariantChecker()
        self.checker.events = self.events
        self.forced = False
        self._round_index = 0
        self._has_faults = False

    def bind(self, state, weight_table: np.ndarray) -> None:
        self.checker.bind(state, weight_table)
        self._has_faults = state.device.fault_injector is not None

    # ------------------------------------------------------------------
    # Activation predicates
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether rounds need checkpoints/checks at all.  False means
        run_round is a pure passthrough — zero overhead."""
        return self.cfg.check_cadence > 0 or self.forced or self._has_faults

    def _should_sweep(self, round_index: int) -> bool:
        if self.forced:
            return True
        cadence = self.cfg.check_cadence
        return cadence > 0 and round_index % cadence == 0

    def handles(self, exc: BaseException) -> bool:
        """Whether the ladder treats ``exc`` as a detected fault.

        Typed faults and violations always; raw numpy crashes
        (IndexError and friends) only while fault injection is armed —
        corrupted state legitimately crashes kernels, but on a clean
        run such a crash is a bug that must surface.
        """
        if isinstance(exc, (DeviceFault, InvariantViolation)):
            return True
        return self._has_faults and isinstance(
            exc, (IndexError, ValueError, OverflowError)
        )

    # ------------------------------------------------------------------
    # Device probe (per-kernel checks in forced mode)
    # ------------------------------------------------------------------
    def on_kernel(self, kernel: str) -> None:
        if self.forced:
            self.checker.on_kernel(kernel, self._round_index)

    # ------------------------------------------------------------------
    # The ladder, rung 1: rollback-and-retry
    # ------------------------------------------------------------------
    def run_round(self, state, body, round_index: int):
        """Execute one round under checkpoint protection."""
        if not self.active:
            return body()
        self._round_index = round_index
        cp = Checkpoint.capture(state)
        attempts = 0
        while True:
            try:
                out = body()
                if self._should_sweep(round_index):
                    self.stats.checks_run += 1
                    self.checker.check_round(round_index=round_index)
                return out
            except Exception as exc:
                if not self.handles(exc):
                    raise
                self._record_detection(exc, round_index)
                attempts += 1
                cp.restore(state)
                self.checker.resync()
                self.stats.rollbacks += 1
                if self.events.enabled:
                    self.events.emit(
                        "recovery.rollback",
                        level="warning",
                        round=round_index,
                        attempt=attempts,
                        retry=attempts <= MAX_RETRIES,
                    )
                if attempts > MAX_RETRIES:
                    # Rung 2 is the phase wrapper's job.
                    raise PhaseRestartRequired from exc
                self.stats.retries += 1

    def _record_detection(self, exc, round_index: int) -> None:
        if isinstance(exc, DeviceFault):
            self.stats.device_faults += 1
            label, kind = "device-fault", exc.kind
            kernel = exc.kernel
        elif isinstance(exc, InvariantViolation):
            self.stats.invariant_violations += 1
            label, kind = "invariant", exc.invariant
            kernel = exc.kernel
        else:
            # A raw crash out of corrupted state (fault injection armed)
            # — counts as a device-side detection.
            self.stats.device_faults += 1
            label, kind = "device-fault", f"kernel-crash:{type(exc).__name__}"
            kernel = "?"
        self._detected(label, kind, round_index, kernel, str(exc))

    def _detected(self, label, kind, round_index: int, kernel, message: str) -> None:
        """The one writer of a detection: its stats row, and the
        ``detected …`` mark that writes ``recovery.detected``."""
        self.stats.detections.append(
            {
                "round": round_index,
                "detector": label,
                "kind": kind,
                "kernel": kernel,
                "message": message,
            }
        )
        self.tracer.mark(
            f"detected {label}:{kind}",
            "recovery",
            log=self.events,
            on_close="recovery.detected",
            level="warning",
            detector=label,
            kind=kind,
            round=round_index,
            kernel=kernel,
        )

    # ------------------------------------------------------------------
    # Rung 2/3 bookkeeping (called by the driver's phase wrapper)
    # ------------------------------------------------------------------
    def note_phase_fault(self, exc) -> None:
        """Record a detection that escaped the per-round guard."""
        self._record_detection(exc, self._round_index)

    def note_phase_restart(self, label: str) -> None:
        self.stats.phase_restarts += 1
        self.forced = True
        self.checker.resync()
        self.tracer.mark(
            f"phase restart: {label}",
            "recovery",
            log=self.events,
            on_close="recovery.phase_restart",
            level="warning",
            phase=label,
            forced_checks=True,
        )

    # ------------------------------------------------------------------
    # End-of-run: verify detector + fallback
    # ------------------------------------------------------------------
    def _note_fallback(self, cause: str) -> None:
        self.stats.fallbacks += 1
        self.tracer.mark(
            "serial fallback",
            "recovery",
            log=self.events,
            on_close="recovery.fallback",
            level="error",
            cause=cause,
        )

    def finalize(
        self, graph, in_mst: np.ndarray, fell_through: bool
    ) -> tuple[np.ndarray, bool]:
        """Apply the last ladder rungs; returns ``(edge mask, degraded)``.

        A degraded mask is the graph's cached, read-only reference.

        ``fell_through`` means a phase restart already failed and the
        driver is asking for the serial fallback outright.
        """
        if fell_through:
            self._note_fallback("ladder-exhausted")
            return reference_mst_mask(graph), True
        if self.active:
            self.stats.checks_run += 1
            ref = reference_mst_mask(graph)
            if not np.array_equal(in_mst, ref):
                self.stats.verify_detections += 1
                self._detected(
                    "verify", "result-mismatch", -1, "end-of-run",
                    "final edge mask differs from the serial Kruskal reference",
                )
                self._note_fallback("verify")
                return ref, True
        return in_mst, False
