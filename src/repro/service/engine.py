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

Each query owns one ``query <id>`` span tree from submit to outcome
(:class:`Ticket`): ``admit`` (policy armed), ``queue wait``,
``resolve graph``, ``cache lookup``, ``load input``, ``run`` and
``encode``, and the root's wall time is the outcome's ``latency_s``.
Each query also runs in its own resilience scope: faults and the
recovery ladder are per-query, and a failing query returns a typed
error outcome instead of poisoning the pool.

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
* a per-graph-fingerprint circuit breaker fails fast while a graph
  keeps failing, probing deterministically on a seeded cooldown;
* shed/broken/failed queries optionally degrade to a stale cached
  result (``served_by: stale-cache``) or the graph's cached
  serial-Kruskal reference MSF (``served_by: serial-fallback``), and
  poison specs are quarantined.

With ``policy=None`` (the default) none of this code runs and serving
behavior — results, counters, metrics — is bit-identical to a
policy-free build.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace

from ..errors import GraphFormatError, Overloaded
from ..graph.io import resolve_input
from ..obs.events import NULL_EVENTS, get_event_log
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import FlightRecorder
from ..obs.slo import SLOTracker
from ..obs.trace import Tracer
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

__all__ = ["MSTService", "ServiceConfig", "Ticket", "execute_query", "run_query"]

# The sliding window (seconds) behind service.qps / p50 / p95 and the
# SLO burn rates: recent traffic, not process lifetime.
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
    # Overload-safe serving (None = off, bit-identical to a policy-free
    # build) and an exact cost-model slowdown factor for chaos-under-
    # load testing (GPUSpec.slowed, behind the --slowdown flags).
    policy: PolicyConfig | None = None
    slowdown: float = 1.0
    # Where the always-on flight recorder writes postmortem bundles
    # (None = recorder off).
    postmortem_dir: str | None = "postmortems"

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
def _graph_source(query: Query):
    """The query input's ``(build-cache key, loader)``; loading an
    unknown suite input fails as a :class:`QueryError` naming the
    query, unless the query is named by its input (as in ``profile``),
    where the error already names it."""
    key, load = resolve_input(query.input, query.scale)
    if key[0] == "file" or query.id == query.input:
        return key, load

    def build():
        try:
            return load()
        except GraphFormatError as exc:
            raise QueryError(f"query {query.id}: {exc}") from None

    return key, build


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


def _query_span(tracer, query: Query, **kw):
    """The query's ``query <id>`` root span."""
    return tracer.span(f"query {query.id}", "service", query=query.id, **kw)


def run_query(
    query: Query,
    tracer,
    graph=None,
    *,
    slowdown: float = 1.0,
    deadline: float | None = None,
    events=None,
):
    """The execution path of the bench harness's cells and the
    ``run``/``mst``/``profile``/``dashboard`` verbs: the query's
    ``load input`` and ``run`` spans under a ``query <id>`` root.
    Returns ``(graph, result)``; failures propagate typed."""
    with _query_span(tracer, query):
        graph, result, _load, _run = _load_and_run(
            query, tracer, graph, slowdown=slowdown, deadline=deadline, events=events
        )
    return graph, result


def _load_and_run(query: Query, tracer, graph, *, events=None, **kw):
    """``load input`` resolves ``graph`` (unless the build cache did)
    and ``run`` dispatches the code; returns ``(graph, result, load
    span, run span)``.  Handed the service ticket's log as ``events``,
    ``load input`` writes ``service.execute`` as it opens."""
    log = events if events is not None else NULL_EVENTS
    with tracer.span(
        "load input", "host", log=log, on_open="service.execute", input=query.input
    ) as load:
        if graph is None:
            graph = _graph_source(query)[1]()
    with tracer.span("run", "host", code=query.code) as run:
        result = _run_code(query, graph, tracer, events=events, **kw)
    return graph, result, load, run


def execute_query(
    query: Query,
    graph=None,
    *,
    tracer=None,
    slowdown: float = 1.0,
    deadline: float | None = None,
    events=None,
) -> QueryOutcome:
    """Run one query to completion and summarize it as an outcome.

    Raises nothing query-related: every typed failure becomes an error
    outcome.  ``graph`` may be pre-resolved (build cache).  The
    ``load input``, ``run`` and ``encode`` spans go under the span open
    on ``tracer`` (a served ticket's root, which owns the latency);
    with no tracer, the null tracer, or none open, the query gets a
    ``query <id>`` root of its own and ``latency_s`` is that root's
    wall time.
    ``slowdown`` uniformly slows the modeled hardware by that exact
    factor (chaos-under-load testing); ``deadline`` is a
    ``time.perf_counter`` timestamp propagated into the ECL-MST round
    loop, past which the run aborts as a ``status="timeout"`` outcome.
    ``events`` overrides the process-global event log (the service
    passes its ticket's log here so solver events reach the
    flight-recorder ring).
    A successful outcome carries the solver's result as ``_result``,
    outside its fields: never serialized, compared or copied.
    """
    if tracer is None or not tracer.enabled:
        tracer = Tracer()
    kw = dict(slowdown=slowdown, deadline=deadline, events=events)
    if tracer.current is not None:
        return _execute(query, graph, tracer, **kw)
    with _query_span(tracer, query) as root:
        out = _execute(query, graph, tracer, **kw)
    out.latency_s = root.wall_seconds
    return out


def _execute(query: Query, graph, tracer, **kw) -> QueryOutcome:
    from ..obs.metrics import collect_result_metrics

    try:
        graph, result, load, run = _load_and_run(query, tracer, graph, **kw)
    except BaseException as exc:  # typed failures -> error outcome
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return QueryOutcome.failure(query, exc)
    with tracer.span("encode", "service"):
        out = _encode(
            query,
            graph,
            result,
            metrics=collect_result_metrics(result),
            resilience=dict(result.extra.get("resilience") or {}),
            load_seconds=load.wall_seconds,
            run_seconds=run.wall_seconds,
        )
        out.result_key = result_key(out.graph["digest"], query)
    out._result = result
    return out


def _encode(query: Query, graph, result, **fields) -> QueryOutcome:
    """The success payload of ``result`` on ``graph``, plus ``fields``."""
    from ..obs.profile import graph_fingerprint

    return QueryOutcome(
        id=query.id,
        input=query.input,
        code=query.code,
        system=query.system,
        scale=query.scale,
        algorithm=result.algorithm,
        graph=graph_fingerprint(graph),
        total_weight=int(result.total_weight),
        num_mst_edges=int(result.num_mst_edges),
        rounds=int(result.rounds),
        modeled_seconds=float(result.modeled_seconds),
        mst_digest=edges_digest(result),
        **fields,
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
    from ..bench.harness import SYSTEMS

    system = SYSTEMS[query.system - 1]
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
    runner = get_runner(query.code)
    result = runner.run(graph, gpu=system.gpu, cpu=system.cpu, tracer=tracer)
    if runner.kind == "gpu":
        # GPU baselines price against the same spec; the run profile
        # attributes their kernels on the roofline with it.
        result.extra.setdefault("gpu_spec", system.gpu)
    if query.verify:
        from ..core.verify import verify_mst

        with tracer.span("verify", "host"):
            verify_mst(result)
    return result


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class Ticket:
    """Handle for one submitted query, and the owner of its span tree.

    Submitting opens the query's ``query <id>`` root on a tracer of the
    ticket's own.  ``outcome()`` waits (honoring the query's timeout,
    counted from the root's start) and always returns a
    :class:`QueryOutcome`, through the one finisher that closes the
    root: the outcome's ``latency_s`` is the root's wall time.
    Timeouts become ``status="timeout"`` outcomes, and a query still
    queued at its deadline is cancelled cleanly without ever executing.
    """

    def __init__(self, service: "MSTService", query: Query) -> None:
        self.query = query
        self.service = service
        self.primary = True  # False when attached to an in-flight duplicate
        self.future: concurrent.futures.Future | None = None
        self.tracer = Tracer()
        self.log = service.events.bind(query=query.id)
        # Closed by whichever thread finishes the ticket; the queue
        # wait is opened on submit and closed by the worker.
        self._root_scope = ExitStack()
        self.root = self._root_scope.enter_context(
            _query_span(
                self.tracer, query, log=self.log, on_open="service.enqueue",
                level="debug", input=query.input, code=query.code,
            )
        )
        self._queue_wait = ExitStack()
        timeout = query.timeout_s
        self.timeout = service.config.default_timeout_s if timeout is None else timeout
        self.deadline = None if self.timeout is None else self.root.wall_start + self.timeout

    def resolve(self, outcome: QueryOutcome) -> "Ticket":
        """Carry an outcome decided on submit (cached/shed/refused)."""
        self.future = concurrent.futures.Future()
        self.future.set_result(outcome)
        return self

    def outcome(self) -> QueryOutcome:
        remaining = None
        if self.deadline is not None:
            remaining = max(0.0, self.deadline - time.perf_counter())
        try:
            raw = self.future.result(timeout=remaining)
        except concurrent.futures.TimeoutError:
            return self.service._on_timeout(self)
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
        if self.config.postmortem_dir is not None:
            self.recorder = FlightRecorder(
                self.config.postmortem_dir, registry=self.registry
            ).attach(self)
            self.events = self.recorder.tee(self.events)
        # Result cache entries are ``(stored_at, outcome)``: the
        # ``time.monotonic()`` store time is the staleness the serving
        # policy reads.
        self.results = LRUCache(self.config.result_cache_size)
        self.graphs = LRUCache(self.config.graph_cache_size)
        # The one window of finished queries: behind service.qps /
        # p50 / p95, the /statusz window block and the SLOs.
        self.slo = SLOTracker(window_s=WINDOW_S, events=self.events)
        self.started_at = time.time()
        # The last successful execution's (result, tracer), profiled
        # when read (latest_profile).
        self._last_run: tuple | None = None
        self._lock = threading.Lock()
        self._closed = False
        # Spec key -> the primary ticket of its in-flight execution.
        self._inflight: dict[str, Ticket] = {}
        # Serving policy: constructed only when any mechanism is armed,
        # so a policy-free service runs exactly the pre-policy code.
        self.policy: ResiliencePolicy | None = None
        if self.config.policy is not None and self.config.policy.enabled:
            self.policy = ResiliencePolicy(
                self.config.policy,
                max_queue_depth=self.config.max_queue_depth,
                registry=self.registry,
                events=self.events,
            )
        # Learned spec-key -> result-key mapping: lets the submit path
        # answer repeat queries from the result cache without loading
        # the graph.  Bounded like the result cache it points into.
        self._spec_to_rkey = LRUCache(self.config.result_cache_size)
        self._slots = threading.BoundedSemaphore(self.config.max_queue_depth)
        self._depth = 0
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
        self.registry.counter("service.queries").inc()
        ticket = Ticket(self, query)
        if self._closed:
            return ticket.resolve(self._shutdown_outcome(query))
        tracer = ticket.tracer
        with self._lock:
            key = query.spec_key()
            primary = self._inflight.get(key)
            # Attach only to an execution whose deadline is no earlier
            # than this ticket's (None never expires): the solver stops
            # at the primary's deadline, which must not end this one.
            if primary is not None and (
                primary.deadline is None
                or (ticket.deadline is not None and primary.deadline >= ticket.deadline)
            ):
                self.registry.counter("service.dedup_hits").inc()
                tracer.mark("coalesce", "service", log=ticket.log, on_close="service.dedup")
                ticket.primary, ticket.future = False, primary.future
                return ticket
            rkey = self._spec_to_rkey.get(key)
        if rkey is not None:
            cached = self._cache_lookup(ticket, rkey, "submit")
            if cached is not None:
                return ticket.resolve(cached)
        if self.policy is not None:
            with tracer.span("admit", "service"):
                refused = self._policy_gate(query, key, rkey)
            if refused is not None:
                return ticket.resolve(refused)
        ticket._queue_wait.enter_context(tracer.span("queue wait", "service"))
        self._slots.acquire()
        try:
            future = self._executor.submit(self._thread_job, query, ticket)
        except RuntimeError:
            # Raced with close(): the executor refused the job after we
            # took a slot.  Give the slot back and resolve typed.
            self._slots.release()
            ticket._queue_wait.close()
            return ticket.resolve(self._shutdown_outcome(query))
        ticket.future = future
        with self._lock:
            self._depth += 1
            self.registry.gauge("service.queue_depth").set(self._depth)
            self._inflight[key] = ticket
        # Registered after the in-flight map so a fast completion still
        # cleans up: a callback added to a finished future fires
        # immediately in this thread.
        future.add_done_callback(lambda _f: self._release(key, future))
        return ticket

    def _drop_inflight(self, key: str, future) -> None:
        """Compare-and-pop (lock held): drop ``key`` only while it still
        names ``future``'s execution, not a later primary's."""
        entry = self._inflight.get(key)
        if entry is not None and entry.future is future:
            del self._inflight[key]

    def _release(self, key: str, future) -> None:
        with self._lock:
            self._depth -= 1
            self.registry.gauge("service.queue_depth").set(self._depth)
            self._drop_inflight(key, future)
        self._slots.release()

    # ------------------------------------------------------------------
    # Serving policy (submit side)
    # ------------------------------------------------------------------
    def _shutdown_outcome(self, query: Query) -> QueryOutcome:
        return QueryOutcome.failure(
            query,
            Overloaded("service is shut down", reason="shutdown"),
            status="cancelled",
        )

    def _policy_gate(
        self, query: Query, key: str, rkey: str | None
    ) -> QueryOutcome | None:
        """Admission + quarantine + learned-fingerprint breaker checks.

        Returns the outcome when the query must not queue, or ``None``
        to proceed.  Runs *after* the dedup/result-cache fast
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
                return out
        with self._lock:
            depth = self._depth
        decision = pol.admit(priority=query.priority, queue_depth=depth)
        if not decision.admitted:
            return self._shed_outcome(query, rkey, decision.reason)
        if rkey is not None and pol.breaker_rejects_fast(
            rkey.split(":", 1)[0]
        ):
            pol.note_shed()
            return self._shed_outcome(query, rkey, "breaker-open")
        return None

    def _shed_outcome(
        self, query: Query, rkey: str | None, reason: str
    ) -> QueryOutcome:
        """A shed query's answer: degraded stale answer if allowed and
        available, else a typed ``shed`` outcome (exit code 6)."""
        stale = self._stale_outcome(query, rkey, cause=reason)
        if stale is not None:
            return stale
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
        return out

    # ------------------------------------------------------------------
    # Staleness (read only with the policy on)
    # ------------------------------------------------------------------
    def _is_fresh(self, stored_at: float) -> bool:
        """Whether a cached result may serve as a normal cache hit.

        Always true without the policy (entries never expire, the
        pre-policy behavior).  With ``fresh_ttl_s`` armed, older
        entries stop short-circuiting execution — they remain eligible
        only for *degraded* stale serving under duress.
        """
        pol = self.policy
        if pol is None or pol.cfg.fresh_ttl_s <= 0:
            return True
        return time.monotonic() - stored_at <= pol.cfg.fresh_ttl_s

    def _stale_outcome(
        self, query: Query, rkey: str | None, *, cause: str
    ) -> QueryOutcome | None:
        """A degraded answer from the result cache, if policy allows."""
        pol = self.policy
        if pol is None or not pol.cfg.serve_stale or rkey is None:
            return None
        entry = self.results.peek(rkey)
        if entry is None:
            return None
        stored_at, cached = entry
        age = max(0.0, time.monotonic() - stored_at)
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
    def _thread_job(self, query: Query, ticket: Ticket) -> QueryOutcome:
        ticket._queue_wait.close()
        if ticket.deadline is not None and time.perf_counter() > ticket.deadline:
            # Spent its whole budget waiting in the queue: never run.
            return QueryOutcome.failure(
                query,
                TimeoutError("deadline expired while queued"),
                status="timeout",
            )
        from ..obs.profile import graph_fingerprint

        tracer = ticket.tracer
        try:
            with tracer.span("resolve graph", "service", input=query.input):
                graph = self._resolve_graph(query)
                digest = graph_fingerprint(graph)["digest"]
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._note_error(query, str(exc))
            return QueryOutcome.failure(query, exc)
        rkey = result_key(digest, query)
        cached = self._cache_lookup(ticket, rkey, "worker")
        if cached is not None:
            return cached
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
        outcome = execute_query(
            query,
            graph,
            tracer=tracer,
            slowdown=self.config.slowdown,
            deadline=ticket.deadline,
            events=ticket.log,
        )
        if pol is not None:
            pol.breaker_record(digest, ok=outcome.ok, query_id=query.id)
            if pol.cfg.quarantine_on:
                pol.quarantine.record(
                    query.spec_key(),
                    ok=outcome.ok,
                    error_kind=outcome.error_kind,
                )
        if outcome.ok:
            self._last_run = (vars(outcome).pop("_result"), tracer)
            self.results.put(rkey, (time.monotonic(), outcome))
        else:
            if outcome.status != "timeout":  # _finish counts timeouts
                self._note_error(query, outcome.error or "?")
            if pol is not None and outcome.error_kind in ("fault", "timeout"):
                degraded = self._degraded_answer(
                    query,
                    graph,
                    rkey,
                    tracer,
                    cause=f"failed:{outcome.error_kind}",
                )
                if degraded is not None:
                    degraded.policy.setdefault(
                        "original_error", outcome.error_kind
                    )
                    return degraded
        return outcome

    def _note_error(self, query: Query, error: str) -> None:
        self.registry.counter("service.errors").inc()
        if self.events.enabled:
            self.events.emit("service.error", level="error", query=query.id, error=error)

    def _degraded_answer(
        self, query: Query, graph, rkey: str, tracer, *, cause: str
    ) -> QueryOutcome | None:
        """Stale cached answer, else serial fallback, else ``None``.

        The serial fallback is the graph's cached reference MSF (the
        verifier's serial Kruskal).  It is granted at reduced priority:
        it re-enters the admission bucket with the lowest-priority
        reserve, so degraded work never crowds out admitted traffic.
        """
        pol = self.policy
        if pol is None:
            return None
        stale = self._stale_outcome(query, rkey, cause=cause)
        if stale is not None:
            return stale
        if not (pol.cfg.degrade_serial and pol.allow_fallback()):
            return None
        pol.note_degraded()
        from ..core.verify import reference_result

        # No result key, so it is never cached as the real answer.
        with tracer.span(
            "serial fallback", "service", log=self.events, on_open="policy.degraded",
            level="warning", query=query.id, mode="serial-fallback", cause=cause,
        ):
            return _encode(
                query,
                graph,
                reference_result(graph),
                status="degraded",
                served_by=SERVED_FALLBACK,
                policy={"degraded": "serial-fallback", "cause": cause},
            )

    def _cache_lookup(
        self, ticket: Ticket, rkey: str, path: str
    ) -> QueryOutcome | None:
        """The fresh cached answer under ``rkey``, if any.  A
        ``cache lookup`` mark records the verdict; a hit writes
        ``service.cache_hit``."""
        entry = self.results.get(rkey)
        hit = entry is not None and self._is_fresh(entry[0])
        ticket.tracer.mark(
            "cache lookup", "service", log=ticket.log,
            on_close="service.cache_hit" if hit else None, path=path, hit=hit,
        )
        if not hit:
            return None
        self.registry.counter("service.result_cache_hits").inc()
        return replace(entry[1], served_by=SERVED_CACHE)

    @property
    def latest_profile(self) -> dict | None:
        """The last successful execution's run profile (the admin
        ``/profilez`` payload), built when read; ``None`` before any."""
        last = self._last_run
        if last is None:
            return None
        from ..obs.profile import RunProfile

        result, tracer = last
        return RunProfile.from_result(result, tracer=tracer).to_dict()

    def _resolve_graph(self, query: Query):
        before = self.graphs.hits
        graph = self.graphs.get_or_create(*_graph_source(query))
        if self.graphs.hits > before:
            self.registry.counter("service.graph_cache_hits").inc()
        return graph

    # ------------------------------------------------------------------
    # Ticket support
    # ------------------------------------------------------------------
    def _finish(self, ticket: Ticket, out: QueryOutcome, **changes) -> QueryOutcome:
        """The one finisher of every ticket: close its root, whose wall
        time is the waiter's ``latency_s``; hand the tree and the
        outcome to the recorder and the window of finished queries;
        then evaluate the SLOs.

        Availability counts *served* outcomes — a degraded answer is
        still an answer — while shed queries feed the shed-rate SLO.
        Without the policy, served == ok and shed never happens, so
        the accounting is unchanged.  The outcome's query ID rides
        along as the exemplar for the latency summary and SLOs.
        Evaluating here reports a burn (``slo.burn`` and its bundle)
        without any reader; it runs after the recorder so a failed
        outcome's bundle is captured first.
        """
        ticket._root_scope.close()
        out = replace(
            out, id=ticket.query.id, latency_s=ticket.root.wall_seconds, **changes
        )
        if out.status == "timeout":
            # Whichever thread saw the deadline first (the waiter's
            # timer, the queue check or the solver's round loop), the
            # ticket finishes here once.
            self.registry.counter("service.timeouts").inc()
            if self.events.enabled:
                self.events.emit(
                    "service.timeout",
                    level="warning",
                    query=out.id,
                    timeout_s=ticket.timeout,
                    why=out.error,
                )
        res = out.resilience
        escaped = int(res.get("escaped", 0) or 0) if isinstance(res, dict) else 0
        self.slo.record(
            ok=out.served,
            latency_s=out.latency_s,
            escaped=escaped,
            shed=out.status == "shed",
            query_id=out.id,
        )
        if self.recorder is not None:
            self.recorder.record_spans(out.id, ticket.root)
            self.recorder.observe_outcome(out, query=ticket.query)
        self.slo.evaluate()
        return out

    def _personalize(self, ticket: Ticket, raw: QueryOutcome) -> QueryOutcome:
        """Each waiter gets its own copy: its id, its latency, and a
        ``coalesced`` marker when it attached to another execution."""
        served = raw.served_by
        if not ticket.primary and raw.ok:
            served = SERVED_COALESCED
        if raw.ok and raw.result_key:
            self._spec_to_rkey.put(ticket.query.spec_key(), raw.result_key)
        return self._finish(ticket, raw, served_by=served)

    def _timeout_outcome(self, ticket: Ticket, why: str) -> QueryOutcome:
        return self._finish(
            ticket,
            QueryOutcome.failure(
                ticket.query,
                TimeoutError(f"{why} (timeout {ticket.timeout}s)"),
                status="timeout",
            ),
        )

    def _on_timeout(self, ticket: Ticket) -> QueryOutcome:
        # Only a primary may cancel its queued execution: a coalesced
        # waiter gives up alone and leaves the shared one running.
        if ticket.primary and ticket.future.cancel():
            # Still queued: cancelled cleanly, never executed.  (The
            # done callback fires on cancel and releases the dedup key
            # and slot.)
            ticket._queue_wait.close()
            return self._timeout_outcome(ticket, "cancelled while queued")
        # Already running (or shared, for a coalesced waiter): the
        # computation finishes in the background (and may still warm
        # the cache); this waiter stops waiting and
        # its root closes now, with the worker's spans still open.
        # Drop the dedup key NOW — if the execution is wedged, later
        # identical queries must not coalesce onto a dead ticket and
        # inherit its fate (slot/depth accounting stays with the done
        # callback, which fires if the execution ever finishes).
        with self._lock:
            self._drop_inflight(ticket.query.spec_key(), ticket.future)
        return self._timeout_outcome(ticket, "timed out while executing")

    def _cancelled_outcome(self, ticket: Ticket) -> QueryOutcome:
        """Typed outcome for a query cancelled before execution (the
        executor dropped it at shutdown)."""
        ticket._queue_wait.close()
        self.registry.counter("service.cancelled").inc()
        if self.events.enabled:
            self.events.emit(
                "service.cancelled",
                level="warning",
                query=ticket.query.id,
            )
        return self._finish(
            ticket,
            QueryOutcome.failure(
                ticket.query,
                Overloaded(
                    "cancelled before execution (service shutdown)",
                    reason="shutdown",
                ),
                status="cancelled",
            ),
        )

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
        # p50/p95/qps reflect the window of finished queries (recent
        # traffic), not the process lifetime: a long-lived service
        # reports what it is doing *now*.  One summary, one sort.
        latency = self.slo.summary()
        reg.gauge("service.p50_latency").set(latency["p50"])
        reg.gauge("service.p95_latency").set(latency["p95"])
        reg.gauge("service.qps").set(latency["count"] / WINDOW_S)
        out = reg.as_dict()
        out["service.graph_cache_size"] = float(len(self.graphs))
        out["service.result_cache_size"] = float(len(self.results))
        if self.policy is not None:
            out["resilience.policy.breakers_open"] = float(
                self.policy.breakers_open()
            )
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
        latency = self.slo.summary()
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
                "completed": latency["count"],
                "qps": latency["count"] / WINDOW_S,
                "latency": latency,
            },
            # A snapshot: a postmortem bundle builds this inside its
            # capture, so it must not decide (and swallow) a burn.
            "slos": [s.to_dict() for s in self.slo.statuses()],
            "policy": (
                {"enabled": True, **self.policy.status()}
                if self.policy is not None
                else {"enabled": False}
            ),
            "recorder": (
                {
                    "enabled": True,
                    "dir": self.recorder.dir,
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
