"""The batched MST query engine.

:class:`MSTService` serves many :class:`~repro.service.query.Query`
objects through a three-level pipeline:

1. **Result cache** — an LRU keyed on *graph fingerprint × canonical
   config hash* (:func:`~repro.service.query.result_key`).  An
   identical query is answered from memory with a bit-identical
   :class:`~repro.service.outcome.QueryOutcome` (same weight, edge-set
   digest, counters-derived metrics), marked ``served_by =
   "result-cache"``.
2. **Build cache** — an LRU of loaded/generated
   :class:`~repro.graph.csr.CSRGraph` objects keyed on the input
   *source* (suite name + scale, or file path + size/mtime signature
   via :func:`repro.graph.io.file_signature`), so queries that differ
   only in config/system skip the load — the dominant host cost per
   the PR 3 ``host_hotspots`` table.
3. **Worker pool** — one thread pool with a bounded queue (submit
   blocks when full), per-query timeout/cancellation, and in-flight
   deduplication: concurrent queries with the same spec key attach to
   one execution (``served_by = "coalesced"``).

Each query executes under its own tracer (host ``load``/``run`` spans
feed the outcome's latency breakdown) and its own resilience scope:
faults and the recovery ladder are per-query, and a failing query
returns a typed error outcome instead of poisoning the pool.

The service exports aggregate metrics into a
:class:`~repro.obs.metrics.MetricsRegistry` — ``service.qps``,
``service.cache_hit_ratio``, ``service.queue_depth``,
``service.p50_latency`` / ``service.p95_latency`` and the underlying
counters — via :meth:`MSTService.metrics`.

**Overload safety** (optional, zero-overhead when off): attaching a
:class:`~repro.resilience.policy.PolicyConfig` via
``ServiceConfig.policy`` arms the serving policy —

* admission control sheds excess queries *before* they queue (typed
  ``shed`` outcomes, lowest ``Query.priority`` first);
* transient ``fault``/``timeout`` failures retry with decorrelated-
  jitter backoff, budgeted per query and never past its deadline
  (deadlines also propagate into the solver's round loop);
* a per-graph-fingerprint circuit breaker fails fast while a graph
  keeps failing, probing deterministically on a seeded cooldown;
* shed/broken/exhausted queries optionally degrade to a stale cached
  result (``served_by: stale-cache``) or the serial-Kruskal fallback
  (``served_by: serial-fallback``), and poison specs are quarantined.

With ``policy=None`` (the default) none of this code runs and serving
behavior — results, counters, metrics — is bit-identical to a
policy-free build.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from ..errors import Overloaded
from ..obs.events import get_event_log
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import FlightRecorder, RecorderConfig
from ..obs.slo import SLOTracker
from ..obs.trace import Tracer
from ..obs.window import SlidingCounter, SlidingHistogram
from ..resilience.policy import PolicyConfig, ResiliencePolicy
from .cache import LRUCache
from .outcome import (
    SERVED_CACHE,
    SERVED_COALESCED,
    SERVED_FALLBACK,
    SERVED_STALE,
    QueryOutcome,
    edges_digest,
)
from .query import Query, QueryError, result_key

__all__ = ["MSTService", "ServiceConfig", "Ticket", "execute_query"]

# The degraded-mode algorithm: the paper's serial Kruskal reference,
# already a registered baseline runner.
_FALLBACK_CODE = "PBBS Ser."

# The sliding window (seconds) behind service.qps / p50 / p95, the SLO
# burn rates and the policy's windowed rates: recent traffic, not
# process lifetime.
WINDOW_S = 60.0
# The oldest cached result (seconds) the policy may still serve as a
# degraded stale answer.
STALE_MAX_AGE_S = 300.0


@dataclass(frozen=True)
class ServiceConfig:
    """Service sizing and scheduling knobs."""

    workers: int = 4
    result_cache_size: int = 256
    graph_cache_size: int = 32
    max_queue_depth: int = 64  # in-flight bound; submit blocks when full
    default_timeout_s: float | None = None
    # Whether executed queries retain their latest run profile (the
    # admin /profilez payload).
    keep_profile: bool = False
    # Overload-safe serving (None = off, bit-identical to a policy-free
    # build) and an exact cost-model slowdown factor for chaos-under-
    # load testing (GPUSpec.slowed, behind the --slowdown flags).
    policy: PolicyConfig | None = None
    slowdown: float = 1.0
    # Always-on flight recorder (None = off).  The default instance is
    # frozen and shared; it only sizes ring buffers and names the
    # postmortem directory, so sharing is safe.
    recorder: RecorderConfig | None = RecorderConfig()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")


# ----------------------------------------------------------------------
# Query execution (pure function of query + graph)
# ----------------------------------------------------------------------
def _graph_source_key(query: Query) -> tuple:
    """Build-cache key for the query's input source.

    File inputs carry a size/mtime signature so an edited file is a
    miss; suite inputs are keyed on (name, scale) — generation is
    seeded and deterministic.
    """
    from ..cli import _FORMAT_LOADERS  # single source of format truth

    p = Path(query.input)
    if p.suffix in _FORMAT_LOADERS and p.exists():
        from ..graph.io import file_signature

        return ("file", str(p.resolve()), file_signature(p))
    return ("suite", query.input, repr(float(query.scale)))


def _load_graph_for(query: Query):
    """Load or generate the query's input graph (uncached)."""
    kind = _graph_source_key(query)[0]
    if kind == "file":
        from ..cli import _load_graph

        return _load_graph(query.input)
    from ..generators import suite

    try:
        return suite.build(query.input, scale=query.scale)
    except KeyError as exc:
        raise QueryError(f"query {query.id}: {exc.args[0]}") from None


def _build_fault_plan(query: Query, config, graph, gpu):
    """A seeded per-query fault plan (chaos queries), horizons taken
    from a fault-free dry run as the campaign module does."""
    from ..core.eclmst import ecl_mst
    from ..resilience.faults import FAULT_KINDS, FaultPlan

    dry = ecl_mst(
        graph,
        config,
        gpu=gpu,
        fault_plan=FaultPlan(seed=query.fault_seed or 0),
    )
    fi = dry.extra["fault_injection"]
    return FaultPlan.generate(
        seed=query.fault_seed or 0,
        n_faults=query.n_faults,
        launches=fi["launches_seen"],
        atomic_calls=fi["atomic_calls_seen"],
        kinds=query.fault_kinds or FAULT_KINDS,
    )


def execute_query(
    query: Query,
    graph=None,
    *,
    tracer=None,
    profile_sink=None,
    slowdown: float = 1.0,
    deadline: float | None = None,
    events=None,
) -> QueryOutcome:
    """Run one query to completion and summarize it as an outcome.

    Raises nothing query-related: every typed failure becomes an error
    outcome.  ``graph`` may be pre-resolved (build cache); ``tracer``
    defaults to a fresh per-query :class:`Tracer`.  ``profile_sink``,
    when given, receives the finished run's
    :class:`~repro.obs.profile.RunProfile` as a plain dict (the admin
    server's ``/profilez`` payload) — it is only called on success.
    ``slowdown`` uniformly slows the modeled hardware by that exact
    factor (chaos-under-load testing); ``deadline`` is a
    ``time.perf_counter`` timestamp propagated into the ECL-MST round
    loop, past which the run aborts as a timeout outcome.  ``events``
    overrides the process-global event log (the service passes its
    recorder tee here so solver events reach the flight-recorder ring).
    """
    from ..obs.profile import graph_fingerprint

    tracer = tracer or Tracer()
    t0 = time.perf_counter()
    try:
        with tracer.span(f"query {query.id}", kind="service", query=query.id):
            with tracer.span("load input", kind="host", input=query.input):
                if graph is None:
                    graph = _load_graph_for(query)
                fingerprint = graph_fingerprint(graph)
            load_s = time.perf_counter() - t0
            t1 = time.perf_counter()
            with tracer.span("run", kind="host", code=query.code):
                result = _run_code(
                    query,
                    graph,
                    tracer,
                    slowdown=slowdown,
                    deadline=deadline,
                    events=events,
                )
            run_s = time.perf_counter() - t1
    except BaseException as exc:  # typed failures -> error outcome
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return QueryOutcome.failure(
            query, exc, latency_s=time.perf_counter() - t0
        )
    from ..obs.metrics import collect_result_metrics

    if profile_sink is not None:
        from ..obs.profile import RunProfile

        try:
            profile_sink(
                RunProfile.from_result(result, tracer=tracer).to_dict()
            )
        except Exception:  # profiling must never fail the query
            pass

    return QueryOutcome(
        id=query.id,
        input=query.input,
        code=query.code,
        system=query.system,
        scale=query.scale,
        algorithm=result.algorithm,
        graph=fingerprint,
        total_weight=int(result.total_weight),
        num_mst_edges=int(result.num_mst_edges),
        rounds=int(result.rounds),
        modeled_seconds=float(result.modeled_seconds),
        mst_digest=edges_digest(result),
        metrics=collect_result_metrics(result),
        resilience=dict(result.extra.get("resilience") or {}),
        result_key=result_key(fingerprint["digest"], query),
        load_seconds=load_s,
        run_seconds=run_s,
        latency_s=time.perf_counter() - t0,
    )


def _run_code(
    query: Query,
    graph,
    tracer,
    *,
    slowdown: float = 1.0,
    deadline=None,
    events=None,
):
    from ..baselines.registry import get_runner
    from ..bench.harness import SYSTEM1, SYSTEM2

    system = SYSTEM1 if query.system == 1 else SYSTEM2
    if slowdown != 1.0:
        system = replace(
            system,
            gpu=system.gpu.slowed(slowdown),
            cpu=system.cpu.slowed(slowdown),
        )
    if query.code == "ECL-MST":
        from ..core.eclmst import ecl_mst

        config = query.resolved_config()
        resilience = None
        if query.check_cadence > 0:
            from ..resilience import ResilienceConfig

            resilience = ResilienceConfig(check_cadence=query.check_cadence)
        fault_plan = None
        if query.n_faults > 0:
            fault_plan = _build_fault_plan(query, config, graph, system.gpu)
        # Bind the query ID into the solver's event log so solver/
        # resilience events join back to the serving-layer events (the
        # solver adds its own run ID on top).
        log = events if events is not None else get_event_log()
        events = log.bind(query=query.id) if log.enabled else None
        return ecl_mst(
            graph,
            config,
            gpu=system.gpu,
            verify=query.verify,
            tracer=tracer,
            resilience=resilience,
            fault_plan=fault_plan,
            events=events,
            deadline=deadline,
        )
    try:
        runner = get_runner(query.code)
    except KeyError:
        from ..baselines.registry import RUNNERS

        raise QueryError(
            f"query {query.id}: unknown code {query.code!r}; "
            f"choose from {', '.join(RUNNERS)}"
        ) from None
    result = runner.run(graph, gpu=system.gpu, cpu=system.cpu, tracer=tracer)
    if query.verify:
        from ..core.verify import verify_mst

        verify_mst(result)
    return result


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
@dataclass
class Ticket:
    """Handle for one submitted query.

    ``outcome()`` waits (honoring the query's timeout, measured from
    submission) and always returns a :class:`QueryOutcome` — timeouts
    become ``status="timeout"`` outcomes, and a query still queued at
    its deadline is cancelled cleanly without ever executing.
    """

    query: Query
    future: concurrent.futures.Future
    submitted_at: float
    primary: bool  # False when attached to an in-flight duplicate
    service: "MSTService"

    def outcome(self) -> QueryOutcome:
        q = self.query
        timeout = (
            q.timeout_s
            if q.timeout_s is not None
            else self.service.config.default_timeout_s
        )
        remaining = None
        if timeout is not None:
            remaining = max(0.0, self.submitted_at + timeout - time.perf_counter())
        try:
            raw = self.future.result(timeout=remaining)
        except concurrent.futures.TimeoutError:
            return self.service._on_timeout(self, timeout)
        except concurrent.futures.CancelledError:
            # The executor cancelled it before it ran (service
            # shutdown): a typed "cancelled" outcome, not a timeout —
            # the client never got a chance, not a slow answer.
            return self.service._cancelled_outcome(self)
        return self.service._personalize(self, raw)


class MSTService:
    """Batched MST query engine (see module docstring).

    Usable as a context manager; :meth:`close` drains the pool.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        events=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry or MetricsRegistry()
        self.events = events if events is not None else get_event_log()
        # Flight recorder: constructed first and teed into the event
        # flow so everything downstream (SLO tracker, policy, solver
        # runs) feeds its rings — even when the user-facing log is the
        # NULL_EVENTS default.
        self.recorder: FlightRecorder | None = None
        if self.config.recorder is not None and self.config.recorder.enabled:
            self.recorder = FlightRecorder(
                self.config.recorder, registry=self.registry
            ).attach(self)
            self.events = self.recorder.tee(self.events)
        self.results = LRUCache(self.config.result_cache_size)
        self.graphs = LRUCache(self.config.graph_cache_size)
        # Sliding windows behind service.qps / p50 / p95 and the SLOs:
        # recent traffic, not process lifetime (the lifetime histogram
        # still exists for totals).
        self._lat_window = SlidingHistogram(window_s=WINDOW_S)
        self._done_window = SlidingCounter(window_s=WINDOW_S)
        self.slo = SLOTracker(window_s=WINDOW_S, events=self.events)
        self.started_at = time.time()
        self.latest_profile: dict | None = None
        self._lock = threading.Lock()
        self._closed = False
        self._inflight: dict[str, concurrent.futures.Future] = {}
        # Serving policy: constructed only when any mechanism is armed,
        # so a policy-free service runs exactly the pre-policy code.
        self.policy: ResiliencePolicy | None = None
        if self.config.policy is not None and self.config.policy.enabled:
            self.policy = ResiliencePolicy(
                self.config.policy,
                max_queue_depth=self.config.max_queue_depth,
                registry=self.registry,
                events=self.events,
                window_s=WINDOW_S,
            )
        # When each result-cache entry was stored (staleness metadata
        # for degraded serving); maintained only with the policy on.
        self._cached_at: dict[str, float] = {}
        # Learned spec-key -> result-key mapping: lets the submit path
        # answer repeat queries from the result cache without loading
        # the graph.  Bounded like the result cache it points into.
        self._spec_to_rkey = LRUCache(self.config.result_cache_size)
        self._slots = threading.BoundedSemaphore(self.config.max_queue_depth)
        self._depth = 0
        self._first_submit: float | None = None
        self._last_done: float | None = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="mst-service",
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, query: Query) -> Ticket:
        """Enqueue one query; blocks while the queue is at capacity.

        With the serving policy armed, a query may instead resolve
        immediately: quarantined specs, admission-shed queries, and
        breaker-broken graphs get typed outcomes (optionally degraded
        to a stale cached answer) without touching the queue.
        """
        now = time.perf_counter()
        self.registry.counter("service.queries").inc()
        if self._closed:
            return self._resolved_ticket(
                query, self._shutdown_outcome(query), now
            )
        if self.events.enabled:
            self.events.emit(
                "service.enqueue",
                level="debug",
                query=query.id,
                input=query.input,
                code=query.code,
            )
        with self._lock:
            if self._first_submit is None:
                self._first_submit = now
            key = query.spec_key()
            if key in self._inflight:
                self.registry.counter("service.dedup_hits").inc()
                if self.events.enabled:
                    self.events.emit(
                        "service.dedup", level="info", query=query.id
                    )
                return Ticket(query, self._inflight[key], now, False, self)
            rkey = self._spec_to_rkey.get(key)
        if rkey is not None:
            cached = self.results.get(rkey)
            if cached is not None and self._is_fresh(rkey):
                self.registry.counter("service.result_cache_hits").inc()
                if self.events.enabled:
                    self.events.emit(
                        "service.cache_hit",
                        level="info",
                        query=query.id,
                        path="submit",
                    )
                return self._resolved_ticket(
                    query, replace(cached, served_by=SERVED_CACHE), now
                )
        if self.policy is not None:
            gated = self._policy_gate(query, key, rkey, now)
            if gated is not None:
                return gated
        self._slots.acquire()
        deadline = None
        timeout = (
            query.timeout_s
            if query.timeout_s is not None
            else self.config.default_timeout_s
        )
        if timeout is not None:
            deadline = now + timeout
        try:
            future = self._executor.submit(self._thread_job, query, deadline)
        except RuntimeError:
            # Raced with close(): the executor refused the job after we
            # took a slot.  Give the slot back and resolve typed.
            self._slots.release()
            return self._resolved_ticket(
                query, self._shutdown_outcome(query), now
            )
        with self._lock:
            self._depth += 1
            self.registry.gauge("service.queue_depth").set(self._depth)
            self._inflight[key] = future
        # Registered after the in-flight map so a fast completion still
        # cleans up: a callback added to a finished future fires
        # immediately in this thread.
        future.add_done_callback(lambda _f: self._release(key))
        return Ticket(query, future, now, True, self)

    def _release(self, key: str) -> None:
        with self._lock:
            self._depth -= 1
            self.registry.gauge("service.queue_depth").set(self._depth)
            self._last_done = time.perf_counter()
            self._inflight.pop(key, None)
        self._slots.release()

    # ------------------------------------------------------------------
    # Serving policy (submit side)
    # ------------------------------------------------------------------
    def _resolved_ticket(
        self, query: Query, outcome: QueryOutcome, now: float
    ) -> Ticket:
        """A ticket already carrying its outcome (shed/cached/refused)."""
        done: concurrent.futures.Future = concurrent.futures.Future()
        done.set_result(outcome)
        return Ticket(query, done, now, True, self)

    def _shutdown_outcome(self, query: Query) -> QueryOutcome:
        return QueryOutcome.failure(
            query,
            Overloaded("service is shut down", reason="shutdown"),
            status="cancelled",
        )

    def _policy_gate(
        self, query: Query, key: str, rkey: str | None, now: float
    ) -> Ticket | None:
        """Admission + quarantine + learned-fingerprint breaker checks.

        Returns a resolved ticket when the query must not queue, or
        ``None`` to proceed.  Runs *after* the dedup/result-cache fast
        paths: answering from memory is nearly free, so overload
        protection only guards execution capacity.
        """
        pol = self.policy
        assert pol is not None
        if pol.cfg.quarantine_on:
            entry = pol.quarantine.check(key)
            if entry is not None:
                pol.note_quarantined()
                if self.events.enabled:
                    self.events.emit(
                        "policy.refused",
                        level="warning",
                        query=query.id,
                        reason="quarantine",
                        failures=entry["failures"],
                    )
                out = QueryOutcome.failure(
                    query,
                    Overloaded(
                        f"query spec quarantined after {entry['failures']} "
                        "consecutive failures",
                        reason="quarantine",
                    ),
                    status="quarantined",
                )
                out.policy = {"reason": "quarantine", **entry}
                return self._resolved_ticket(query, out, now)
        with self._lock:
            depth = self._depth
        decision = pol.admit(priority=query.priority, queue_depth=depth)
        if not decision.admitted:
            return self._shed_ticket(query, rkey, now, decision.reason)
        if rkey is not None and pol.breaker_rejects_fast(
            rkey.split(":", 1)[0]
        ):
            pol.note_shed()
            return self._shed_ticket(query, rkey, now, "breaker-open")
        return None

    def _shed_ticket(
        self, query: Query, rkey: str | None, now: float, reason: str
    ) -> Ticket:
        """Resolve a shed query: degraded stale answer if allowed and
        available, else a typed ``shed`` outcome (exit code 6)."""
        stale = self._stale_outcome(query, rkey, cause=reason)
        if stale is not None:
            return self._resolved_ticket(query, stale, now)
        if self.events.enabled:
            self.events.emit(
                "policy.shed",
                level="warning",
                query=query.id,
                reason=reason,
                priority=query.priority,
            )
        out = QueryOutcome.failure(
            query,
            Overloaded(f"query shed ({reason})", reason=reason),
            status="shed",
        )
        out.policy = {"reason": reason, "priority": query.priority}
        return self._resolved_ticket(query, out, now)

    # ------------------------------------------------------------------
    # Staleness bookkeeping (policy only; no-ops when off)
    # ------------------------------------------------------------------
    def _cache_result(self, rkey: str, outcome: QueryOutcome) -> None:
        self.results.put(rkey, outcome)
        if self.policy is None:
            return
        with self._lock:
            self._cached_at[rkey] = time.monotonic()
            # Prune timestamps for evicted entries once the side table
            # outgrows the cache — O(capacity) amortized, rare.
            if len(self._cached_at) > 2 * max(8, self.config.result_cache_size):
                live = set(self.results.keys())
                for k in [k for k in self._cached_at if k not in live]:
                    del self._cached_at[k]

    def _age_of(self, rkey: str) -> float | None:
        at = self._cached_at.get(rkey)
        return None if at is None else max(0.0, time.monotonic() - at)

    def _is_fresh(self, rkey: str) -> bool:
        """Whether a cached result may serve as a normal cache hit.

        Always true without the policy (entries never expire, the
        pre-policy behavior).  With ``fresh_ttl_s`` armed, older
        entries stop short-circuiting execution — they remain eligible
        only for *degraded* stale serving under duress.
        """
        pol = self.policy
        if pol is None or pol.cfg.fresh_ttl_s <= 0:
            return True
        age = self._age_of(rkey)
        return age is None or age <= pol.cfg.fresh_ttl_s

    def _stale_outcome(
        self, query: Query, rkey: str | None, *, cause: str
    ) -> QueryOutcome | None:
        """A degraded answer from the result cache, if policy allows."""
        pol = self.policy
        if pol is None or not pol.cfg.serve_stale or rkey is None:
            return None
        cached = self.results.peek(rkey)
        if cached is None:
            return None
        age = self._age_of(rkey) or 0.0
        if age > STALE_MAX_AGE_S:
            return None
        pol.note_degraded()
        if self.events.enabled:
            self.events.emit(
                "policy.degraded",
                level="warning",
                query=query.id,
                mode="stale-cache",
                cause=cause,
                staleness_s=round(age, 3),
            )
        out = replace(cached, status="degraded", served_by=SERVED_STALE)
        out.policy = {
            "degraded": "stale-cache",
            "cause": cause,
            "staleness_s": round(age, 3),
        }
        return out

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _thread_job(self, query: Query, deadline: float | None) -> QueryOutcome:
        if deadline is not None and time.perf_counter() > deadline:
            # Spent its whole budget waiting in the queue: never run.
            return QueryOutcome.failure(
                query,
                TimeoutError("deadline expired while queued"),
                status="timeout",
            )
        tracer = Tracer()
        try:
            graph = self._resolve_graph(query)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.registry.counter("service.errors").inc()
            if self.events.enabled:
                self.events.emit(
                    "service.error",
                    level="error",
                    query=query.id,
                    error=str(exc),
                )
            return QueryOutcome.failure(query, exc)
        from ..obs.profile import graph_fingerprint

        digest = graph_fingerprint(graph)["digest"]
        rkey = result_key(digest, query)
        cached = self.results.get(rkey)
        if cached is not None and self._is_fresh(rkey):
            self.registry.counter("service.result_cache_hits").inc()
            if self.events.enabled:
                self.events.emit(
                    "service.cache_hit",
                    level="info",
                    query=query.id,
                    path="worker",
                )
            return replace(cached, served_by=SERVED_CACHE)
        pol = self.policy
        if pol is not None and not pol.breaker_allows(digest):
            # Open breaker (authoritative, post-graph-load): fail fast
            # or degrade; never burn an execution on a broken graph.
            degraded = self._degraded_answer(
                query, graph, rkey, tracer, cause="breaker-open"
            )
            if degraded is not None:
                return degraded
            pol.note_shed()
            if self.events.enabled:
                self.events.emit(
                    "policy.shed",
                    level="warning",
                    query=query.id,
                    reason="breaker-open",
                    priority=query.priority,
                )
            out = QueryOutcome.failure(
                query,
                Overloaded(
                    "circuit breaker open for this graph",
                    reason="breaker-open",
                ),
                status="shed",
            )
            out.policy = {"reason": "breaker-open", "graph": digest}
            return out
        self.registry.counter("service.executed").inc()
        if self.events.enabled:
            self.events.emit(
                "service.execute",
                level="info",
                query=query.id,
                input=query.input,
                code=query.code,
            )
        outcome = self._execute_with_retries(
            query, graph, tracer, deadline, rkey
        )
        if self.recorder is not None:
            self.recorder.record_spans(query.id, tracer)
        if pol is not None:
            pol.breaker_record(digest, ok=outcome.ok, query_id=query.id)
            if pol.cfg.quarantine_on and pol.quarantine.record(
                query.spec_key(), ok=outcome.ok, error_kind=outcome.error_kind
            ):
                pol.note_quarantined()
        if outcome.ok:
            self._cache_result(rkey, outcome)
        else:
            self.registry.counter("service.errors").inc()
            if self.events.enabled:
                self.events.emit(
                    "service.error",
                    level="error",
                    query=query.id,
                    error=outcome.error or "?",
                )
            if pol is not None and outcome.error_kind in ("fault", "timeout"):
                degraded = self._degraded_answer(
                    query,
                    graph,
                    rkey,
                    tracer,
                    cause=f"retries-exhausted:{outcome.error_kind}",
                )
                if degraded is not None:
                    degraded.policy.setdefault(
                        "original_error", outcome.error_kind
                    )
                    return degraded
        return outcome

    def _execute_with_retries(
        self,
        query: Query,
        graph,
        tracer,
        deadline: float | None,
        rkey: str,
    ) -> QueryOutcome:
        """Execute, retrying transient failures under the policy budget.

        Backoff follows the per-query seeded decorrelated-jitter
        schedule; a retry is only attempted for ``fault``/``timeout``
        outcomes, within the budget, and never past the deadline.
        Chaos queries (seeded fault injection) re-run with an
        attempt-salted fault seed so the injected fault actually moves
        — exactly as a real transient would — while the *result*
        stays keyed (and cached) under the original spec.
        """
        sink = self._store_profile if self.config.keep_profile else None
        outcome = execute_query(
            query,
            graph,
            tracer=tracer,
            profile_sink=sink,
            slowdown=self.config.slowdown,
            deadline=deadline,
            events=self.events,
        )
        pol = self.policy
        if pol is None or not pol.cfg.retries_on:
            return outcome
        retry = pol.retry_for(rkey)
        attempt = 0
        while not outcome.ok:
            delay = retry.next_delay()
            if not retry.should_retry(
                error_kind=outcome.error_kind,
                delay=delay,
                now=time.perf_counter(),
                deadline=deadline,
            ):
                break
            retry.note_attempt(delay)
            pol.note_retry()
            if self.events.enabled:
                self.events.emit(
                    "policy.retry",
                    level="warning",
                    query=query.id,
                    attempt=retry.attempts_used,
                    delay_s=round(delay, 6),
                    error_kind=outcome.error_kind,
                )
            pol.sleep(delay)
            attempt += 1
            attempt_query = query
            if query.n_faults > 0:
                attempt_query = replace(
                    query,
                    fault_seed=(query.fault_seed or 0) + 1_000_003 * attempt,
                )
            outcome = execute_query(
                attempt_query,
                graph,
                tracer=Tracer(),
                profile_sink=sink,
                slowdown=self.config.slowdown,
                deadline=deadline,
                events=self.events,
            )
        if retry.attempts_used:
            if outcome.ok:
                # Re-key a salted chaos retry back to the original spec
                # so caching/dedup see one query, not per-attempt ones.
                outcome = replace(outcome, result_key=rkey)
            outcome.policy = {
                **outcome.policy,
                "retries": retry.attempts_used,
                "backoff_s": round(sum(retry.delays), 6),
            }
        return outcome

    def _degraded_answer(
        self, query: Query, graph, rkey: str, tracer, *, cause: str
    ) -> QueryOutcome | None:
        """Stale cached answer, else serial fallback, else ``None``.

        The serial fallback runs at reduced priority: it re-enters the
        admission bucket with the lowest-priority reserve, so degraded
        work never crowds out admitted traffic.
        """
        pol = self.policy
        if pol is None:
            return None
        stale = self._stale_outcome(query, rkey, cause=cause)
        if stale is not None:
            return stale
        if pol.cfg.degrade_serial and pol.allow_fallback():
            return self._serial_fallback(query, graph, tracer, cause)
        return None

    def _serial_fallback(
        self, query: Query, graph, tracer, cause: str
    ) -> QueryOutcome | None:
        """Answer with the serial-Kruskal baseline, marked degraded."""
        fallback_query = replace(
            query,
            code=_FALLBACK_CODE,
            stage=None,
            config={},
            check_cadence=0,
            fault_seed=None,
            n_faults=0,
            fault_kinds=(),
        )
        fb = execute_query(
            fallback_query,
            graph,
            tracer=tracer,
            slowdown=self.config.slowdown,
            events=self.events,
        )
        if not fb.ok:
            return None
        pol = self.policy
        assert pol is not None
        pol.note_degraded()
        if self.events.enabled:
            self.events.emit(
                "policy.degraded",
                level="warning",
                query=query.id,
                mode="serial-fallback",
                cause=cause,
            )
        out = replace(
            fb,
            id=query.id,
            code=query.code,
            status="degraded",
            served_by=SERVED_FALLBACK,
            result_key="",  # never cached as the real answer
        )
        out.policy = {
            "degraded": "serial-fallback",
            "cause": cause,
            "algorithm": fb.algorithm,
        }
        return out

    def _store_profile(self, profile: dict) -> None:
        """Retain the most recent executed query's run profile (the
        admin server's ``/profilez`` payload)."""
        with self._lock:
            self.latest_profile = profile

    def _resolve_graph(self, query: Query):
        skey = _graph_source_key(query)
        before = self.graphs.hits
        graph = self.graphs.get_or_create(skey, lambda: _load_graph_for(query))
        if self.graphs.hits > before:
            self.registry.counter("service.graph_cache_hits").inc()
        return graph

    # ------------------------------------------------------------------
    # Ticket support
    # ------------------------------------------------------------------
    def _personalize(self, ticket: Ticket, raw: QueryOutcome) -> QueryOutcome:
        """Each waiter gets its own copy: its id, its latency, and a
        ``coalesced`` marker when it attached to another execution."""
        latency = time.perf_counter() - ticket.submitted_at
        served = raw.served_by
        if not ticket.primary and raw.ok:
            served = SERVED_COALESCED
        if raw.ok and raw.result_key:
            self._spec_to_rkey.put(ticket.query.spec_key(), raw.result_key)
        out = replace(
            raw, id=ticket.query.id, served_by=served, latency_s=latency
        )
        self.registry.histogram("service.latency").observe(latency)
        self._observe_done(out, latency, query=ticket.query)
        if out.status == "timeout":
            self.registry.counter("service.timeouts").inc()
        return out

    def _observe_done(
        self, out: QueryOutcome, latency: float, query: Query | None = None
    ) -> None:
        """Feed one finished waiter into the sliding windows, SLOs, and
        the flight recorder.

        Availability counts *served* outcomes — a degraded answer is
        still an answer — while shed queries feed the shed-rate SLO.
        Without the policy, served == ok and shed never happens, so
        the accounting is unchanged.  The outcome's query ID rides
        along as the exemplar for the latency window and SLOs.
        """
        self._lat_window.observe(latency, exemplar=out.id)
        self._done_window.inc()
        escaped = 0
        res = out.resilience
        if isinstance(res, dict):
            escaped = int(res.get("escaped", 0) or 0)
        self.slo.record(
            ok=out.served,
            latency_s=latency,
            escaped=escaped,
            shed=out.status == "shed",
            query_id=out.id,
        )
        rec = self.recorder
        if rec is not None:
            rec.observe_outcome(out, query=query)
            rec.maybe_snapshot(self)

    def _timeout_outcome(
        self, ticket: Ticket, timeout: float | None, why: str
    ) -> QueryOutcome:
        self.registry.counter("service.timeouts").inc()
        latency = time.perf_counter() - ticket.submitted_at
        self.registry.histogram("service.latency").observe(latency)
        if self.events.enabled:
            self.events.emit(
                "service.timeout",
                level="warning",
                query=ticket.query.id,
                timeout_s=timeout,
                why=why,
            )
        out = QueryOutcome.failure(
            ticket.query,
            TimeoutError(f"{why} (timeout {timeout}s)"),
            status="timeout",
            latency_s=latency,
        )
        self._observe_done(out, latency, query=ticket.query)
        return out

    def _on_timeout(self, ticket: Ticket, timeout: float | None) -> QueryOutcome:
        if ticket.future.cancel():
            # Still queued: cancelled cleanly, never executed.  (The
            # done callback fires on cancel and releases the dedup key
            # and slot.)
            return self._timeout_outcome(
                ticket, timeout, "cancelled while queued"
            )
        # Already running: the computation finishes in the background
        # (and may still warm the cache); this waiter stops waiting.
        # Drop the dedup key NOW — if the execution is wedged, later
        # identical queries must not coalesce onto a dead ticket and
        # inherit its fate (slot/depth accounting stays with the done
        # callback, which fires if the execution ever finishes).
        self._drop_inflight(ticket)
        return self._timeout_outcome(
            ticket, timeout, "timed out while executing"
        )

    def _drop_inflight(self, ticket: Ticket) -> None:
        """Release a ticket's dedup key without touching slot/depth
        accounting (compare-and-pop: only if the map still points at
        this ticket's future)."""
        key = ticket.query.spec_key()
        with self._lock:
            if self._inflight.get(key) is ticket.future:
                del self._inflight[key]

    def _cancelled_outcome(self, ticket: Ticket) -> QueryOutcome:
        """Typed outcome for a query cancelled before execution (the
        executor dropped it at shutdown)."""
        latency = time.perf_counter() - ticket.submitted_at
        self.registry.counter("service.cancelled").inc()
        self.registry.histogram("service.latency").observe(latency)
        if self.events.enabled:
            self.events.emit(
                "service.cancelled",
                level="warning",
                query=ticket.query.id,
            )
        out = QueryOutcome.failure(
            ticket.query,
            Overloaded(
                "cancelled before execution (service shutdown)",
                reason="shutdown",
            ),
            status="cancelled",
            latency_s=latency,
        )
        self._observe_done(out, latency, query=ticket.query)
        return out

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def run_batch(self, items) -> list[QueryOutcome]:
        """Serve a mixed list of :class:`Query` and pre-failed
        :class:`QueryOutcome` entries (malformed lines), preserving
        order.  Never raises for per-query failures."""
        tickets: list[Ticket | QueryOutcome] = []
        for item in items:
            if isinstance(item, QueryOutcome):
                self.registry.counter("service.queries").inc()
                self.registry.counter("service.errors").inc()
                if self.recorder is not None:
                    self.recorder.observe_outcome(item)
                tickets.append(item)
            else:
                tickets.append(self.submit(item))
        return [
            t if isinstance(t, QueryOutcome) else t.outcome() for t in tickets
        ]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """One flat dict of service metrics (the ISSUE's aggregate set
        plus the underlying counters), refreshed from current state."""
        reg = self.registry
        queries = reg.counter("service.queries").value
        hits = (
            reg.counter("service.result_cache_hits").value
            + reg.counter("service.dedup_hits").value
        )
        reg.gauge("service.cache_hit_ratio").set(
            hits / queries if queries else 0.0
        )
        # p50/p95/qps reflect the sliding window (recent traffic), not
        # the process lifetime: a long-lived service reports what it is
        # doing *now*.  The lifetime histogram stays in the registry
        # for totals (service.latency.count / .sum).
        reg.gauge("service.p50_latency").set(self._lat_window.quantile(0.5))
        reg.gauge("service.p95_latency").set(self._lat_window.quantile(0.95))
        reg.gauge("service.qps").set(self._done_window.rate())
        out = {
            k: v
            for k, v in reg.as_dict().items()
            if not k.startswith("service.latency.")
        }
        out["service.graph_cache_size"] = float(len(self.graphs))
        out["service.result_cache_size"] = float(len(self.results))
        if self.policy is not None:
            out.update(self.policy.windowed_metrics())
        if self.recorder is not None:
            out.update(self.recorder.metrics())
        return out

    def slo_statuses(self):
        """Evaluate every SLO against the current window (and emit
        burn/recovered alert events on state transitions)."""
        return self.slo.evaluate()

    def status(self) -> dict:
        """JSON-friendly live snapshot (the admin ``/statusz`` body)."""
        from .. import __version__

        with self._lock:
            depth = self._depth
        return {
            "version": __version__,
            "uptime_s": time.time() - self.started_at,
            "config": {
                "workers": self.config.workers,
                "result_cache_size": self.config.result_cache_size,
                "graph_cache_size": self.config.graph_cache_size,
                "max_queue_depth": self.config.max_queue_depth,
                "window_s": WINDOW_S,
            },
            "queue_depth": depth,
            "caches": {
                "results": len(self.results),
                "graphs": len(self.graphs),
            },
            "window": {
                "completed": self._done_window.total(),
                "qps": self._done_window.rate(),
                "latency": self._lat_window.summary(),
            },
            "slos": [s.to_dict() for s in self.slo_statuses()],
            "policy": (
                {"enabled": True, **self.policy.status()}
                if self.policy is not None
                else {"enabled": False}
            ),
            "recorder": (
                {
                    "enabled": True,
                    "dir": str(self.recorder.config.dir),
                    "bundles_written": self.recorder.bundles_written,
                }
                if self.recorder is not None
                else {"enabled": False}
            ),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Shut the pool down.

        ``wait=False`` cancels still-queued work: those tickets (and
        any later :meth:`submit`) resolve to typed ``cancelled``
        outcomes instead of hanging or raising.
        """
        self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "MSTService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
