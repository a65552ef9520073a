"""Always-on flight recorder, postmortem bundles, and deterministic replay.

A serving process that dies with exit 4/5/6 — or quietly burns an SLO
— used to take its evidence with it.  This module is the black box:
the :class:`FlightRecorder` keeps cheap bounded ring buffers of what
just happened (recent events, query outcomes, and each finished
query's span tree), and on any failure signal freezes them — plus the
offending query's full reproduction key — into a self-contained
on-disk **postmortem bundle** that the ``repro-mst postmortem`` and
``repro-mst replay`` CLI verbs consume.

Failure signals (capture triggers):

* a typed ``error`` or ``timeout`` :class:`~repro.service.outcome.QueryOutcome`
  (fed through :meth:`FlightRecorder.observe_outcome`);
* an ``slo.burn``, ``breaker.open``, or ``invariant.violated`` event
  crossing the recorder's tee (see below);
* an unhandled exception in the serve path
  (:meth:`FlightRecorder.capture_crash`, called by ``repro-mst serve``).

**The tee.**  The recorder inserts itself into the service's event
flow as a :class:`TeeEventLog`: every event is appended to the event
ring *and* forwarded to whatever log the user configured (the
:data:`~repro.obs.events.NULL_EVENTS` default included).  The tee is
always enabled, so the ring retains debug-level detail even when the
user asked for silence — that is the point of a flight recorder —
while the zero-overhead contract survives where it matters: the
recorder never touches solver inputs, so results and modeled counters
stay bit-identical with the recorder on or off.

**Determinism.**  ECL-MST runs are a pure function of (graph
fingerprint, config hash, fault seed) under the simulated cost model,
so a bundle captured from a seeded-fault failure replays bit-exactly:
:func:`replay_bundle` re-executes the captured query standalone and
diffs status / exit code / error family — and the full success payload
(weight, MST digest, counters-derived metrics) when there is one —
against what was recorded.  Wall-clock timeouts are the documented
exception: scheduling is not part of the replay key.

Bundle files are single JSON documents (``PM_<stamp>_<seq>_<slug>.bundle``,
schema :data:`BUNDLE_SCHEMA`) pruned to :data:`BUNDLE_LIMIT` per
directory; per-(reason, spec) cooldowns keep a failure storm from
turning into a disk storm.  ``/debugz`` (admin server) and the
dashboard's incidents panel read the same :func:`recent_bundles`
listing.
"""

from __future__ import annotations

import json
import platform
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from ..errors import EXIT_REPLAY_DIVERGED, BundleError
from .events import format_event_line

__all__ = [
    "BUNDLE_SCHEMA",
    "TRIGGER_EVENTS",
    "FlightRecorder",
    "ReplayReport",
    "TeeEventLog",
    "bundle_summary",
    "load_bundle",
    "recent_bundles",
    "render_postmortem",
    "replay_bundle",
    "span_rows",
]

BUNDLE_SCHEMA = "repro.obs.postmortem/v1"

# Event names whose appearance on the tee captures a bundle.
TRIGGER_EVENTS = ("slo.burn", "breaker.open", "invariant.violated")

# ``breaker.open`` is emitted while the breaker's own lock is held;
# capturing /statusz there would re-enter ``breaker_snapshots()`` on
# the same lock.  Those bundles skip the statusz block (the metrics
# and ring snapshots are lock-free reads and stay in).
_STATUS_UNSAFE_TRIGGERS = ("breaker.open",)

# Outcome statuses that trigger a capture in observe_outcome.
_FAILURE_STATUSES = ("error", "timeout")


# Ring capacities.  A few hundred entries each cost well under a
# megabyte and O(1) per observation, which is what lets the recorder
# default to on.
EVENTS_CAPACITY = 512
OUTCOMES_CAPACITY = 256
# The span ring holds whole query trees by reference, so it is
# counted in queries.
TREES_CAPACITY = 16
# Per-(reason, spec) bundle cooldown: a failure storm on one spec
# writes one bundle per window, and counts the rest as suppressed.
BUNDLE_COOLDOWN_S = 30.0
# On-disk retention: oldest bundles beyond this are pruned.
BUNDLE_LIMIT = 16


class TeeEventLog:
    """An event log that records into the flight recorder's ring and
    forwards to the user-configured log.

    Always enabled: the ring keeps every level regardless of the inner
    log's threshold (``would_emit`` is unconditionally true), so the
    black box retains debug detail even on a silent service.  Bound
    correlation fields (``query=...``, ``run=...``) reach the ring and
    the inner log alike.
    """

    enabled = True

    def __init__(self, recorder: "FlightRecorder", inner, bound=None) -> None:
        self._recorder = recorder
        self._inner = inner
        self._bound = dict(bound or {})

    def would_emit(self, level: str) -> bool:
        return True

    def bind(self, **fields) -> "TeeEventLog":
        inner = self._inner.bind(**fields) if self._inner.enabled else self._inner
        return TeeEventLog(self._recorder, inner, {**self._bound, **fields})

    def emit(self, name: str, level: str = "info", **fields) -> None:
        self._recorder.record_event(
            name, level, {**self._bound, **fields}
        )
        if self._inner.enabled:
            self._inner.emit(name, level, **fields)


class FlightRecorder:
    """Bounded rings + bundle capture for one :class:`MSTService`.

    Ring appends are single ``deque.append`` calls (thread-safe under
    the GIL, O(1), never blocking a worker); captures are rare, guarded
    by a per-thread reentrancy flag (a capture snapshots service state,
    which can itself emit trigger events) and per-(reason, spec)
    cooldowns, and never raise into the serving path.
    """

    def __init__(self, directory="postmortems", *, registry=None) -> None:
        self.dir = str(directory)
        self.registry = registry
        self._service = None
        self._events: deque = deque(maxlen=EVENTS_CAPACITY)
        self._outcomes: deque = deque(maxlen=OUTCOMES_CAPACITY)
        self._trees: deque = deque(maxlen=TREES_CAPACITY)
        self._local = threading.local()
        self._cd_lock = threading.Lock()
        self._cooldowns: dict[str, float] = {}
        self._seq_lock = threading.Lock()
        self._seq = 0
        self.bundles_written = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, service) -> "FlightRecorder":
        """Bind the service whose state captures will snapshot."""
        self._service = service
        return self

    def tee(self, inner) -> TeeEventLog:
        """The event log the service should hold: ring + ``inner``."""
        return TeeEventLog(self, inner)

    # ------------------------------------------------------------------
    # Ring feeds (the hot path: cheap, never raising)
    # ------------------------------------------------------------------
    def record_event(self, name: str, level: str, fields: dict) -> None:
        entry = {"ts": time.time(), "level": level, "event": name}
        entry.update(fields)
        self._events.append(entry)
        if name in TRIGGER_EVENTS:
            self.capture(
                reason=name,
                trigger=entry,
                with_status=name not in _STATUS_UNSAFE_TRIGGERS,
            )

    def observe_outcome(self, outcome, *, query=None) -> None:
        """One finished waiter: ring entry, plus a capture on failure."""
        self._outcomes.append(
            {
                "ts": time.time(),
                "id": outcome.id,
                "status": outcome.status,
                "served_by": outcome.served_by,
                "error_kind": outcome.error_kind,
                "error": outcome.error,
                "exit_code": outcome.exit_code,
                "latency_s": round(outcome.latency_s, 6),
                "input": outcome.input,
                "code": outcome.code,
            }
        )
        if outcome.status in _FAILURE_STATUSES:
            self.capture(
                reason=f"outcome-{outcome.status}",
                query=query,
                outcome=outcome,
            )

    def record_spans(self, query_id: str, root) -> None:
        """Keep one finished query's span tree: its ``query <id>``
        root span, held by reference until the read side flattens it
        (:func:`span_rows`)."""
        self._trees.append((query_id, root))

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def capture(
        self,
        *,
        reason: str,
        trigger: dict | None = None,
        query=None,
        outcome=None,
        with_status: bool = True,
    ) -> Path | None:
        """Freeze the rings + repro key into an on-disk bundle.

        Returns the bundle path, or ``None`` when capture was
        reentrant (a capture's own state snapshot emitted a trigger
        event), cooled down, or failed — a capture must never take the
        serving path down with it.
        """
        if getattr(self._local, "capturing", False):
            return None
        key = self._cooldown_key(reason, trigger, query, outcome)
        now = time.monotonic()
        with self._cd_lock:
            last = self._cooldowns.get(key)
            if (
                last is not None
                and now - last < BUNDLE_COOLDOWN_S
            ):
                self._count("service.postmortem.suppressed")
                return None
            self._cooldowns[key] = now
        self._local.capturing = True
        try:
            bundle = self._build_bundle(
                reason, trigger, query, outcome, with_status
            )
            path = self._write_bundle(bundle, reason, query, outcome)
            self.bundles_written += 1
            self._count("service.postmortem.bundles")
            svc = self._service
            if svc is not None and svc.events.enabled:
                svc.events.emit(
                    "postmortem.captured",
                    level="warning",
                    reason=reason,
                    bundle=str(path),
                )
            return path
        except Exception:
            self._count("service.postmortem.capture_errors")
            return None
        finally:
            self._local.capturing = False

    def capture_crash(self, exc: BaseException, *, service=None) -> Path | None:
        """An unhandled exception escaped the serve path: last words."""
        if service is not None:
            self._service = service
        return self.capture(
            reason="crash",
            trigger={
                "ts": time.time(),
                "level": "error",
                "event": "serve.crash",
                "type": type(exc).__name__,
                "error": str(exc),
            },
        )

    def _cooldown_key(self, reason: str, trigger, query, outcome) -> str:
        spec = ""
        if trigger is not None and "slo" in trigger:
            # Each SLO burns on its own: two burning together get a
            # bundle each.
            spec = str(trigger["slo"])
        elif query is not None:
            try:
                spec = query.spec_key()
            except Exception:
                spec = getattr(query, "id", "") or ""
        elif outcome is not None:
            spec = f"{outcome.input}:{outcome.code}:{outcome.error_kind}"
        return f"{reason}|{spec}"

    def _count(self, name: str) -> None:
        if self.registry is not None:
            try:
                self.registry.counter(name).inc()
            except Exception:
                pass

    def _build_bundle(
        self, reason, trigger, query, outcome, with_status
    ) -> dict:
        from .. import __version__

        svc = self._service
        statusz = None
        metrics = None
        profile = None
        slowdown = 1.0
        if svc is not None:
            slowdown = getattr(svc.config, "slowdown", 1.0)
            try:
                metrics = svc.metrics()
            except Exception:
                metrics = None
            if with_status:
                try:
                    statusz = svc.status()
                except Exception:
                    statusz = None
            profile = svc.latest_profile
        repro: dict = {"slowdown": slowdown}
        if query is not None:
            repro.update(
                input=query.input,
                code=query.code,
                system=query.system,
                scale=query.scale,
                fault_seed=query.fault_seed,
                n_faults=query.n_faults,
            )
            try:
                repro["spec_key"] = query.spec_key()
                repro["config_hash"] = query.config_hash()
            except Exception:
                pass
        if outcome is not None and isinstance(outcome.graph, dict):
            digest = outcome.graph.get("digest")
            if digest:
                repro["graph_digest"] = digest
        return {
            "schema": BUNDLE_SCHEMA,
            "captured_at": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "reason": reason,
            "trigger": trigger,
            "query": query.to_dict() if query is not None else None,
            "outcome": outcome.to_dict() if outcome is not None else None,
            "repro": repro,
            "rings": {
                "events": list(self._events),
                "outcomes": list(self._outcomes),
                "spans": span_rows(list(self._trees)),
            },
            "statusz": statusz,
            "metrics": metrics,
            "profile": profile,
            "env": {
                "version": __version__,
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
        }

    def _write_bundle(self, bundle, reason, query, outcome) -> Path:
        directory = Path(self.dir)
        directory.mkdir(parents=True, exist_ok=True)
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        qid = ""
        if query is not None:
            qid = getattr(query, "id", "") or ""
        elif outcome is not None:
            qid = outcome.id
        slug = _slug(reason if not qid else f"{reason}-{qid}")
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        path = directory / f"PM_{stamp}_{seq:04d}_{slug}.bundle"
        path.write_text(
            json.dumps(bundle, indent=1, sort_keys=True, default=str) + "\n"
        )
        self._prune(directory)
        return path

    def _prune(self, directory: Path) -> None:
        bundles = sorted(directory.glob("PM_*.bundle"))
        for stale in bundles[: max(0, len(bundles) - BUNDLE_LIMIT)]:
            try:
                stale.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Read side (/debugz, dashboard, service.metrics)
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Ring occupancy gauges (merged into ``service.metrics()``)."""
        return {
            "obs.recorder.events": float(len(self._events)),
            "obs.recorder.outcomes": float(len(self._outcomes)),
            "obs.recorder.spans": float(len(self._trees)),
        }

    def debug_snapshot(
        self,
        *,
        events_tail: int = 80,
        outcomes_tail: int = 25,
        queries_tail: int = 4,
    ) -> dict:
        """The admin ``/debugz`` body: ring tails + recent bundles.

        Each ring is snapshotted with one ``list(deque)`` call —
        atomic under the GIL — so concurrent worker appends never
        produce a torn read.  ``spans`` holds the rows of the last
        ``queries_tail`` finished queries' trees.
        """
        return {
            "enabled": True,
            "dir": self.dir,
            "bundles_written": self.bundles_written,
            "rings": {
                name: {"len": len(ring), "capacity": ring.maxlen}
                for name, ring in (
                    ("events", self._events),
                    ("outcomes", self._outcomes),
                    ("spans", self._trees),
                )
            },
            "events": list(self._events)[-events_tail:],
            "outcomes": list(self._outcomes)[-outcomes_tail:],
            "spans": span_rows(list(self._trees)[-queries_tail:]),
            "bundles": recent_bundles(self.dir),
        }


def span_rows(trees) -> list[dict]:
    """Flatten ``(query_id, root span)`` trees into rows, depth-first.

    Every row carries its ``query`` and its ``parent`` span's ID
    (``None`` at the root).  A span's kernel launches — often thousands
    per run — fold into one ``kernel-summary`` row under it.
    """
    rows: list[dict] = []
    for qid, root in trees:
        for sp, _depth, parent in root.walk():
            if sp.kind == "kernel":
                continue
            kernels = [c for c in sp.children if c.kind == "kernel"]
            groups = [(sp.id, getattr(parent, "id", None), sp.name, sp.kind, [sp])]
            if kernels:
                name = f"[{len(kernels)} kernel launches]"
                groups.append((None, sp.id, name, "kernel-summary", kernels))
            for span_id, parent_id, name, kind, spans in groups:
                rows.append({
                    "query": qid,
                    "id": span_id,
                    "parent": parent_id,
                    "name": name,
                    "kind": kind,
                    "wall_s": round(sum(s.wall_seconds for s in spans), 6),
                    "modeled_s": round(sum(s.modeled_seconds for s in spans), 9),
                })
    return rows


def _slug(text: str, *, limit: int = 48) -> str:
    out = "".join(ch if ch.isalnum() else "-" for ch in text).strip("-")
    while "--" in out:
        out = out.replace("--", "-")
    return (out or "bundle")[:limit]


# ----------------------------------------------------------------------
# Bundle files
# ----------------------------------------------------------------------
def load_bundle(path) -> dict:
    """Read and schema-check one bundle file (raises
    :class:`~repro.errors.BundleError` on any problem)."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise BundleError(f"cannot read bundle {p}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BundleError(f"malformed bundle {p}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != BUNDLE_SCHEMA:
        got = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
        raise BundleError(
            f"{p} is not a postmortem bundle "
            f"(schema {got!r}, expected {BUNDLE_SCHEMA!r})"
        )
    return doc


def bundle_summary(bundle: dict, path="") -> dict:
    """The incident-list row for one bundle (dashboard, /debugz)."""
    outcome = bundle.get("outcome") or {}
    query = bundle.get("query") or {}
    return {
        "path": str(path),
        "captured_at": bundle.get("captured_at", ""),
        "reason": bundle.get("reason", "?"),
        "query": query.get("id") or outcome.get("id") or "",
        "status": outcome.get("status", ""),
        "error_kind": outcome.get("error_kind", ""),
        "error": outcome.get("error", ""),
        "exit_code": outcome.get("exit_code", 0),
    }


def recent_bundles(directory, *, limit: int = 20) -> list[dict]:
    """Summaries of the newest bundles in ``directory`` (oldest first);
    unreadable files are skipped, a missing directory is empty."""
    d = Path(directory)
    if not d.is_dir():
        return []
    out = []
    for p in sorted(d.glob("PM_*.bundle"))[-limit:]:
        try:
            out.append(bundle_summary(json.loads(p.read_text()), p))
        except (OSError, json.JSONDecodeError):
            continue
    return out


# ----------------------------------------------------------------------
# Postmortem report
# ----------------------------------------------------------------------
def render_postmortem(
    bundle: dict, *, events_tail: int = 30, spans_tail: int = 20
) -> str:
    """The human-readable incident report for one bundle."""
    lines: list[str] = []
    outcome = bundle.get("outcome") or {}
    query = bundle.get("query") or {}
    qid = query.get("id") or outcome.get("id") or ""
    env = bundle.get("env") or {}
    lines.append(
        f"== postmortem: {bundle.get('reason', '?')} "
        f"at {bundle.get('captured_at', '?')} =="
    )
    lines.append(
        f"repro v{env.get('version', '?')} on python "
        f"{env.get('python', '?')}"
    )
    trigger = bundle.get("trigger")
    if trigger:
        t = {
            k: v
            for k, v in trigger.items()
            if k not in ("ts", "level", "event")
        }
        lines.append(
            f"trigger: {trigger.get('event', '?')} "
            + " ".join(f"{k}={v}" for k, v in t.items())
        )
    if query:
        lines.append("")
        lines.append(f"query {qid}:")
        for k in ("input", "code", "system", "scale", "stage"):
            if query.get(k) not in (None, "", {}):
                lines.append(f"  {k:12s} {query[k]}")
        repro = bundle.get("repro") or {}
        for k in (
            "spec_key",
            "config_hash",
            "graph_digest",
            "fault_seed",
            "n_faults",
            "slowdown",
        ):
            if repro.get(k) not in (None, ""):
                lines.append(f"  {k:12s} {repro[k]}")
    if outcome:
        lines.append("")
        lines.append(
            f"outcome: {outcome.get('status', '?')} "
            f"(exit {outcome.get('exit_code', '?')}, "
            f"kind {outcome.get('error_kind') or '-'}, "
            f"served_by {outcome.get('served_by', '?')})"
        )
        if outcome.get("error"):
            lines.append(f"  error: {outcome['error']}")
    rings = bundle.get("rings") or {}
    events = rings.get("events") or []
    if events:
        lines.append("")
        lines.append(
            f"event timeline (last {min(events_tail, len(events))} of "
            f"{len(events)}; * = the failing query):"
        )
        for e in events[-events_tail:]:
            fields = {
                k: v
                for k, v in e.items()
                if k not in ("ts", "level", "event")
            }
            mark = "*" if qid and fields.get("query") == qid else " "
            lines.append(
                f" {mark} "
                + format_event_line(
                    e.get("ts", 0.0),
                    e.get("level", "info"),
                    e.get("event", "?"),
                    fields,
                )
            )
    spans = [
        s for s in (rings.get("spans") or []) if not qid or s.get("query") == qid
    ]
    if spans:
        lines.append("")
        lines.append(
            f"correlated spans ({'query ' + qid if qid else 'all queries'}):"
        )
        for s in spans[-spans_tail:]:
            lines.append(
                f"  {s.get('name', '?'):28s} {s.get('kind', '?'):15s} "
                f"wall {s.get('wall_s', 0.0) * 1e3:9.3f} ms  "
                f"modeled {s.get('modeled_s', 0.0) * 1e3:9.4f} ms"
            )
    metrics = bundle.get("metrics") or {}
    headline = [
        k
        for k in (
            "service.queries",
            "service.executed",
            "service.errors",
            "service.timeouts",
            "service.qps",
            "service.p50_latency",
            "service.p95_latency",
            "service.cache_hit_ratio",
            "service.postmortem.bundles",
        )
        if k in metrics
    ]
    if headline:
        lines.append("")
        lines.append("headline metrics at capture:")
        for k in headline:
            lines.append(f"  {k:28s} {metrics[k]:.6g}")
    statusz = bundle.get("statusz") or {}
    slos = statusz.get("slos") or []
    if slos:
        lines.append("")
        lines.append("SLOs at capture:")
        for s in slos:
            state = "ALERTING" if s.get("alerting") else "ok"
            exemplar = s.get("exemplar")
            lines.append(
                f"  {s.get('name', '?'):16s} sli {s.get('sli', 0.0):.4f}  "
                f"burn {s.get('burn_rate', 0.0):>8.3g}  {state}"
                + (f"  exemplar {exemplar}" if exemplar else "")
            )
    profile = bundle.get("profile") or {}
    roof = (profile.get("roofline") or {}).get("kernels") or []
    if roof:
        lines.append("")
        # Profiles are kept on success only: this is the last run that
        # succeeded before the capture, named by its own identity.
        lines.append(
            f"roofline of the last profiled run, "
            f"{profile.get('algorithm') or '?'} on "
            f"{(profile.get('graph') or {}).get('name') or '?'} "
            "(hottest kernels):"
        )
        for k in roof[:8]:
            lines.append(
                f"  {k.get('name', '?'):24s} {k.get('bound', '?'):8s} "
                f"{k.get('seconds', 0.0) * 1e3:9.4f} ms  "
                f"x{k.get('launches', 0)}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Deterministic replay
# ----------------------------------------------------------------------
# Always compared: a recorded failure replays with its own fault seed,
# so its error text reproduces too.
_REPLAY_FIELDS = ("status", "error_kind", "exit_code", "error")
# Compared when both outcomes carry the success payload: this is the
# bit-identity surface (same fields the cold-vs-warm cache tests use).
_PAYLOAD_FIELDS = (
    "algorithm",
    "total_weight",
    "num_mst_edges",
    "rounds",
    "modeled_seconds",
    "mst_digest",
    "metrics",
)


@dataclass
class ReplayReport:
    """Recorded-vs-replayed outcome diff for one bundle."""

    bundle_path: str = ""
    reason: str = ""
    query_id: str = ""
    recorded: dict = field(default_factory=dict)
    replayed: dict = field(default_factory=dict)
    diffs: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def matched(self) -> bool:
        return not self.diffs

    @property
    def exit_code(self) -> int:
        return 0 if self.matched else EXIT_REPLAY_DIVERGED

    def to_dict(self) -> dict:
        return {
            "bundle": self.bundle_path,
            "reason": self.reason,
            "query": self.query_id,
            "matched": self.matched,
            "exit_code": self.exit_code,
            "diffs": {
                k: {"recorded": a, "replayed": b}
                for k, (a, b) in self.diffs.items()
            },
            "notes": list(self.notes),
            "recorded": self.recorded,
            "replayed": self.replayed,
        }

    def render(self) -> str:
        lines = [
            f"replayed query {self.query_id or '?'} from "
            f"{self.bundle_path or 'bundle'} (reason {self.reason or '?'})"
        ]
        lines.append(
            f"  recorded: {self.recorded.get('status', '?')} "
            f"(exit {self.recorded.get('exit_code', 0)}, "
            f"kind {self.recorded.get('error_kind') or '-'})"
        )
        lines.append(
            f"  replayed: {self.replayed.get('status', '?')} "
            f"(exit {self.replayed.get('exit_code', 0)}, "
            f"kind {self.replayed.get('error_kind') or '-'})"
        )
        if self.matched:
            lines.append("verdict: MATCH — the failure reproduces bit-identically")
        else:
            lines.append("verdict: DIVERGED")
            for name, (a, b) in self.diffs.items():
                lines.append(f"  {name}: recorded {a!r} != replayed {b!r}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def replay_bundle(bundle: dict, *, bundle_path="") -> ReplayReport:
    """Re-execute a bundle's captured query and diff against the record.

    The replay runs standalone — no service, no cache, no policy — with
    the recorded slowdown factor, so what executes is exactly the pure
    function the bundle's repro key names.  Raises
    :class:`~repro.errors.BundleError` when the bundle carries no query
    (event-triggered bundles record context, not a reproducible run).
    """
    from ..service.engine import execute_query
    from ..service.query import Query

    qd = bundle.get("query")
    if not qd:
        raise BundleError(
            f"bundle has no captured query (reason "
            f"{bundle.get('reason', '?')!r}); only outcome-triggered "
            "bundles are replayable"
        )
    query = Query.from_dict(qd)
    recorded = bundle.get("outcome") or {}
    repro = bundle.get("repro") or {}
    slowdown = float(repro.get("slowdown") or 1.0)
    replayed = execute_query(query, slowdown=slowdown).to_dict()

    fields = list(_REPLAY_FIELDS)
    payload = recorded.get("status") in ("ok", "degraded")
    if payload:
        fields.extend(_PAYLOAD_FIELDS)
    diffs = {}
    for name in fields:
        a = recorded.get(name)
        b = replayed.get(name)
        if name == "error_kind":
            a, b = a or "", b or ""
        if a != b:
            diffs[name] = (a, b)
    if payload:
        a = (recorded.get("graph") or {}).get("digest")
        b = (replayed.get("graph") or {}).get("digest")
        if a != b:
            diffs["graph_digest"] = (a, b)

    notes = []
    if recorded.get("status") == "timeout":
        notes.append(
            "the recorded outcome was a wall-clock timeout; scheduling "
            "is not part of the replay key, so divergence is expected"
        )
    if recorded.get("served_by") in ("stale-cache", "serial-fallback"):
        notes.append(
            "the recorded outcome was served degraded "
            f"({recorded.get('served_by')}); the replay executes the "
            "query for real"
        )
    return ReplayReport(
        bundle_path=str(bundle_path),
        reason=bundle.get("reason", ""),
        query_id=qd.get("id", ""),
        recorded=recorded,
        replayed=replayed,
        diffs=diffs,
        notes=notes,
    )
