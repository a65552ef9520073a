"""Overload-safe serving policy: admission, breakers, quarantine.

Where the rest of :mod:`repro.resilience` protects one *solver run*
against device faults, this module protects the *service* against its
own traffic: a burst of slow queries must degrade into predictable
typed outcomes instead of a timeout cascade.  Three cooperating
mechanisms, armed by :class:`PolicyConfig` and all deterministic
under a seed + injectable clock:

* :class:`TokenBucket` + the queue-depth gate inside
  :class:`AdmissionController` — **load shedding**.  A query is shed
  *before* queueing when the bucket is empty or the queue is too deep
  for its priority; low-priority queries are shed first (they need
  bucket headroom and tolerate less depth), so background traffic
  yields to interactive traffic under pressure.
* :class:`CircuitBreaker` — **per-graph-fingerprint** failure tracking
  with the classic closed → open → half-open automaton.  While open,
  queries against that graph fail fast (or degrade); cooldowns grow
  exponentially with seeded jitter so probe scheduling is reproducible
  trial-for-trial.  Transitions are edge-triggered ``breaker.open`` /
  ``breaker.closed`` events and are recorded in order for tests.
* :class:`Quarantine` — **poison-query isolation**: a spec whose
  executions keep failing is quarantined; later identical submissions
  resolve immediately to a typed ``quarantined`` outcome instead of
  executing again.

Retrying a failed run is not the policy's job: the solver's recovery
ladder (:mod:`repro.resilience.recovery`) retries every guarded run.

:class:`ResiliencePolicy` bundles the three behind one facade the
:class:`~repro.service.engine.MSTService` consults; with
``PolicyConfig()`` (everything off) the facade is never constructed
and the serving path is bit-identical to a policy-free service.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from time import monotonic
from typing import Callable

from ..obs.events import NULL_EVENTS

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CircuitBreaker",
    "PolicyConfig",
    "Quarantine",
    "ResiliencePolicy",
    "TokenBucket",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_HIGH",
]

# Query priority levels (higher = more important; sheds last).  The
# Query field is a free int — anything <= 0 is treated as LOW and
# anything >= 2 as HIGH.
PRIORITY_LOW = 0
PRIORITY_NORMAL = 1
PRIORITY_HIGH = 2

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

# Queue-depth fraction (of max_queue_depth) at which LOW / NORMAL /
# HIGH priority queries are shed instead of queued.
SHED_DEPTH_FRAC = (0.5, 0.9, 1.0)
# Half-open probe successes needed to close a breaker.
BREAKER_PROBES = 1


@dataclass(frozen=True)
class PolicyConfig:
    """The serving-policy knobs (attach via ``ServiceConfig.policy``).

    The defaults leave **everything off**: admission, breaker,
    degradation, and quarantine each activate only when their knob is
    nonzero/true, and a fully-off config makes the service skip policy
    construction entirely (bit-identical serving path).
    """

    # --- admission control / load shedding ---
    admission_rate: float = 0.0  # sustained queries/s; 0 = gate off
    admission_burst: int = 8  # token-bucket capacity
    # --- circuit breaker (per graph fingerprint) ---
    breaker_threshold: int = 0  # consecutive failures to open; 0 = off
    breaker_cooldown_s: float = 1.0  # open duration before half-open
    # --- graceful degradation ---
    serve_stale: bool = False  # shed/broken queries may answer stale
    fresh_ttl_s: float = 0.0  # cache-entry freshness; 0 = never expires
    degrade_serial: bool = False  # serial-Kruskal fallback when broken
    # --- poison-query quarantine ---
    quarantine_after: int = 0  # consecutive failed executions; 0 = off
    # --- determinism ---
    seed: int = 0  # breaker-cooldown jitter RNG seed

    def __post_init__(self) -> None:
        if self.admission_rate < 0:
            raise ValueError("admission_rate must be >= 0")
        if self.admission_burst < 1:
            raise ValueError("admission_burst must be >= 1")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")
        if self.quarantine_after < 0:
            raise ValueError("quarantine_after must be >= 0")

    @property
    def admission_on(self) -> bool:
        return self.admission_rate > 0

    @property
    def breaker_on(self) -> bool:
        return self.breaker_threshold > 0

    @property
    def quarantine_on(self) -> bool:
        return self.quarantine_after > 0

    @property
    def degradation_on(self) -> bool:
        return self.serve_stale or self.degrade_serial

    @property
    def enabled(self) -> bool:
        """Whether *any* mechanism is active (off ⇒ no policy object)."""
        return (
            self.admission_on
            or self.breaker_on
            or self.quarantine_on
            or self.degradation_on
        )

    def to_dict(self) -> dict:
        return {
            "admission_rate": self.admission_rate,
            "admission_burst": self.admission_burst,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_s": self.breaker_cooldown_s,
            "serve_stale": self.serve_stale,
            "fresh_ttl_s": self.fresh_ttl_s,
            "degrade_serial": self.degrade_serial,
            "quarantine_after": self.quarantine_after,
            "seed": self.seed,
        }


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
class TokenBucket:
    """Continuous-refill token bucket with an injectable clock.

    ``try_take(reserve=r)`` succeeds only while at least ``cost + r``
    tokens are available — the reserve is how lower-priority callers
    are made to leave headroom for higher-priority ones.
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        *,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock or monotonic
        self._level = self.burst
        self._last = self._clock()
        self._lock = threading.Lock()

    def _refill_locked(self, now: float) -> None:
        if now > self._last:
            self._level = min(self.burst, self._level + (now - self._last) * self.rate)
        self._last = max(self._last, now)

    def level(self) -> float:
        with self._lock:
            self._refill_locked(self._clock())
            return self._level

    def try_take(self, cost: float = 1.0, *, reserve: float = 0.0) -> bool:
        with self._lock:
            self._refill_locked(self._clock())
            if self._level - cost < reserve:
                return False
            self._level -= cost
            return True


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionDecision:
    """What the gate decided and why (``reason`` is the shed cause)."""

    admitted: bool
    reason: str = "ok"  # "ok" | "token-bucket" | "queue-depth"


class AdmissionController:
    """Token bucket + queue-depth gate, priority-aware.

    Priority ``p`` (clamped to LOW/NORMAL/HIGH) buys two things:

    * a deeper queue allowance — ``SHED_DEPTH_FRAC[p] * max_depth``;
    * less token-bucket headroom to leave — LOW must leave half the
      burst unspent, NORMAL one token, HIGH dips to the bottom.

    Both checks are cheap and run before the query ever touches the
    queue, so shedding is O(1) regardless of load.
    """

    def __init__(
        self,
        cfg: PolicyConfig,
        max_queue_depth: int,
        *,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.cfg = cfg
        self.max_queue_depth = max_queue_depth
        self.bucket = TokenBucket(
            cfg.admission_rate, cfg.admission_burst, clock=clock
        )

    @staticmethod
    def _clamp(priority: int) -> int:
        return max(PRIORITY_LOW, min(PRIORITY_HIGH, priority))

    def decide(self, *, priority: int, queue_depth: int) -> AdmissionDecision:
        p = self._clamp(priority)
        allowed_depth = SHED_DEPTH_FRAC[p] * self.max_queue_depth
        if queue_depth >= allowed_depth:
            return AdmissionDecision(False, "queue-depth")
        reserve = (0.5 * self.cfg.admission_burst, 1.0, 0.0)[p]
        if not self.bucket.try_take(1.0, reserve=reserve):
            return AdmissionDecision(False, "token-bucket")
        return AdmissionDecision(True)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Closed → open → half-open breaker for one graph fingerprint.

    * **closed**: requests pass; ``breaker_threshold`` *consecutive*
      failures open it.
    * **open**: requests fail fast until the cooldown elapses; the
      cooldown doubles per consecutive open (seeded jitter on top) so
      a persistently failing backend is probed ever more rarely — and
      reproducibly, since the jitter RNG is seeded per key.
    * **half-open**: one probe at a time passes; ``BREAKER_PROBES``
      successes close it, any failure re-opens it.

    ``transitions`` records every state change in order — the
    determinism tests replay a fault plan and compare this list.
    """

    def __init__(
        self,
        cfg: PolicyConfig,
        key: str,
        *,
        clock: Callable[[], float] | None = None,
        events=NULL_EVENTS,
    ) -> None:
        self.cfg = cfg
        self.key = key
        self.events = events
        self._clock = clock or monotonic
        self._lock = threading.Lock()
        self.state = BREAKER_CLOSED
        self.failures = 0  # consecutive failures while closed
        self.opens = 0  # lifetime open count (cooldown exponent)
        self.probe_successes = 0
        self._probe_inflight = False
        self._open_until = 0.0
        self._rng = random.Random(f"breaker:{cfg.seed}:{key}")
        self.transitions: list[tuple[str, str, str]] = []  # (from, to, why)
        self.last_failure_query: str | None = None  # exemplar

    # -- transitions ---------------------------------------------------
    def _move_locked(self, to: str, why: str) -> None:
        frm, self.state = self.state, to
        self.transitions.append((frm, to, why))
        if to == BREAKER_OPEN:
            self.opens += 1
            backoff = self.cfg.breaker_cooldown_s * (2 ** (self.opens - 1))
            self._open_until = self._clock() + backoff * (
                1.0 + 0.1 * self._rng.random()
            )
            self._probe_inflight = False
        elif to == BREAKER_HALF_OPEN:
            self.probe_successes = 0
            self._probe_inflight = False
        elif to == BREAKER_CLOSED:
            self.failures = 0
            self.opens = 0
            self._probe_inflight = False
        # Edge-triggered events: only open/closed are alertable edges;
        # half-open is a scheduling detail (debug).
        if self.events.enabled:
            if to == BREAKER_OPEN:
                fields = {
                    "graph": self.key,
                    "failures": self.failures,
                    "opens": self.opens,
                    "why": why,
                }
                if self.last_failure_query:
                    fields["exemplar"] = self.last_failure_query
                self.events.emit("breaker.open", level="error", **fields)
            elif to == BREAKER_CLOSED:
                self.events.emit(
                    "breaker.closed", level="info", graph=self.key, why=why
                )
            else:
                self.events.emit(
                    "breaker.half_open", level="debug", graph=self.key
                )

    # -- the request-path API ------------------------------------------
    def allow(self) -> bool:
        """Whether a request against this graph may execute now."""
        with self._lock:
            if self.state == BREAKER_CLOSED:
                return True
            now = self._clock()
            if self.state == BREAKER_OPEN:
                if now < self._open_until:
                    return False
                self._move_locked(BREAKER_HALF_OPEN, "cooldown-elapsed")
            # half-open: admit a single probe at a time
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record(self, ok: bool, *, query_id: str | None = None) -> None:
        """Feed one execution result into the automaton.

        ``query_id`` tags failures: the last failing query becomes the
        exemplar on ``breaker.open`` events and in snapshots."""
        with self._lock:
            if not ok and query_id:
                self.last_failure_query = query_id
            if self.state == BREAKER_HALF_OPEN:
                self._probe_inflight = False
                if ok:
                    self.probe_successes += 1
                    if self.probe_successes >= BREAKER_PROBES:
                        self._move_locked(BREAKER_CLOSED, "probe-succeeded")
                else:
                    self._move_locked(BREAKER_OPEN, "probe-failed")
                return
            if self.state == BREAKER_OPEN:
                return  # late completion of a pre-open execution
            if ok:
                self.failures = 0
                return
            self.failures += 1
            if self.failures >= self.cfg.breaker_threshold:
                self._move_locked(BREAKER_OPEN, "threshold")

    def rejecting(self) -> bool:
        """Open and still cooling — a *peek* that consumes nothing.

        Used on the submit path: an advisory fast-fail that must not
        steal half-open probe slots from the worker's authoritative
        :meth:`allow` check (and must not itself trigger the
        open → half-open transition).
        """
        with self._lock:
            return (
                self.state == BREAKER_OPEN
                and self._clock() < self._open_until
            )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "graph": self.key,
                "state": self.state,
                "failures": self.failures,
                "opens": self.opens,
                "open_for_s": max(0.0, self._open_until - self._clock())
                if self.state == BREAKER_OPEN
                else 0.0,
                "last_failure_query": self.last_failure_query,
            }


# ----------------------------------------------------------------------
# Poison-query quarantine
# ----------------------------------------------------------------------
class Quarantine:
    """Tracks consecutive failed *executions* per query spec.

    Reaching ``quarantine_after`` quarantines the spec: later identical
    submissions resolve immediately (typed ``quarantined`` outcome)
    instead of executing again.  A successful
    execution of the spec (e.g. after an operator clears it) resets
    the count.
    """

    def __init__(self, cfg: PolicyConfig, *, events=NULL_EVENTS) -> None:
        self.cfg = cfg
        self.events = events
        self._lock = threading.Lock()
        self._failures: dict[str, int] = {}
        self._entries: dict[str, dict] = {}

    def check(self, key: str) -> dict | None:
        """The quarantine entry for ``key``, or None if it may run."""
        with self._lock:
            return self._entries.get(key)

    def record(self, key: str, *, ok: bool, error_kind: str = "") -> bool:
        """Feed one execution result; returns True
        on the edge where the spec becomes quarantined."""
        with self._lock:
            if ok:
                self._failures.pop(key, None)
                self._entries.pop(key, None)
                return False
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            if count < self.cfg.quarantine_after or key in self._entries:
                return False
            self._entries[key] = {
                "failures": count,
                "last_error_kind": error_kind,
            }
        if self.events.enabled:
            self.events.emit(
                "policy.quarantine",
                level="error",
                spec=key,
                failures=count,
                last_error_kind=error_kind,
            )
        return True

    def release(self, key: str) -> None:
        with self._lock:
            self._failures.pop(key, None)
            self._entries.pop(key, None)

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return {k: dict(v) for k, v in self._entries.items()}


# ----------------------------------------------------------------------
# The facade the service talks to
# ----------------------------------------------------------------------
class ResiliencePolicy:
    """One object bundling admission, breakers and quarantine.

    Also owns the ``resilience.policy.*`` telemetry: one lifetime
    counter per decision in ``registry`` (when given), each registered
    at construction so every family is present from the first scrape,
    and every decision is a structured event.  Windowed shedding is the
    service's ``shed-rate`` SLO.
    """

    COUNTERS = (
        "admitted",
        "shed",
        "breaker_fastfail",
        "degraded",
        "quarantined",
    )

    def __init__(
        self,
        cfg: PolicyConfig,
        *,
        max_queue_depth: int,
        registry=None,
        events=NULL_EVENTS,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.cfg = cfg
        self.events = events
        self.registry = registry
        self._clock = clock or monotonic
        self.admission = (
            AdmissionController(cfg, max_queue_depth, clock=clock)
            if cfg.admission_on
            else None
        )
        self.quarantine = Quarantine(cfg, events=events)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        if registry is not None:
            for key in self.COUNTERS:
                registry.counter(f"resilience.policy.{key}")

    # -- telemetry helpers ---------------------------------------------
    def _count(self, key: str) -> None:
        if self.registry is not None:
            self.registry.counter(f"resilience.policy.{key}").inc()

    def breakers_open(self) -> int:
        """Breakers not closed (the ``breakers_open`` gauge)."""
        with self._breaker_lock:
            breakers = list(self._breakers.values())
        return sum(1 for b in breakers if b.state != BREAKER_CLOSED)

    # -- admission -----------------------------------------------------
    def admit(self, *, priority: int, queue_depth: int) -> AdmissionDecision:
        if self.admission is None:
            self._count("admitted")
            return AdmissionDecision(True)
        decision = self.admission.decide(
            priority=priority, queue_depth=queue_depth
        )
        self._count("admitted" if decision.admitted else "shed")
        return decision

    def note_shed(self) -> None:
        """Account a shed that bypassed :meth:`admit` (breaker path)."""
        self._count("shed")

    def allow_fallback(self) -> bool:
        """Whether a degraded serial fallback may run *now*.

        The fallback re-enters the token bucket at the lowest priority
        (it must leave headroom for real traffic); with admission off
        it always may.
        """
        if self.admission is None:
            return True
        return self.admission.bucket.try_take(
            1.0, reserve=0.5 * self.cfg.admission_burst
        )

    # -- breakers ------------------------------------------------------
    def breaker(self, graph_digest: str) -> CircuitBreaker:
        with self._breaker_lock:
            b = self._breakers.get(graph_digest)
            if b is None:
                b = CircuitBreaker(
                    self.cfg,
                    graph_digest,
                    clock=self._clock,
                    events=self.events,
                )
                self._breakers[graph_digest] = b
            return b

    def breaker_allows(self, graph_digest: str | None) -> bool:
        """Authoritative check (worker side): may transition the
        breaker and consume a half-open probe slot.  Counts the
        fastfail when it refuses."""
        if not self.cfg.breaker_on or graph_digest is None:
            return True
        if self.breaker(graph_digest).allow():
            return True
        self._count("breaker_fastfail")
        return False

    def breaker_rejects_fast(self, graph_digest: str | None) -> bool:
        """Advisory peek (submit side): True only while the breaker is
        open and cooling.  Never creates a breaker, never transitions
        one, never consumes a probe slot."""
        if not self.cfg.breaker_on or graph_digest is None:
            return False
        with self._breaker_lock:
            b = self._breakers.get(graph_digest)
        if b is None or not b.rejecting():
            return False
        self._count("breaker_fastfail")
        return True

    def breaker_record(
        self,
        graph_digest: str | None,
        *,
        ok: bool,
        query_id: str | None = None,
    ) -> None:
        if self.cfg.breaker_on and graph_digest is not None:
            self.breaker(graph_digest).record(ok, query_id=query_id)

    def breaker_snapshots(self) -> list[dict]:
        with self._breaker_lock:
            breakers = list(self._breakers.values())
        return [b.snapshot() for b in breakers]

    # -- degradation / quarantine accounting ---------------------------
    def note_degraded(self) -> None:
        self._count("degraded")

    def note_quarantined(self) -> None:
        """Account one query refused because its spec is quarantined
        (the quarantine edge itself is the ``policy.quarantine``
        event)."""
        self._count("quarantined")

    # -- snapshots ------------------------------------------------------
    def status(self) -> dict:
        """JSON-friendly policy block for ``/statusz``."""
        return {
            "config": self.cfg.to_dict(),
            "breakers": self.breaker_snapshots(),
            "quarantined": self.quarantine.snapshot(),
        }
