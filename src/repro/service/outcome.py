"""Serializable result of one service query, plus the error taxonomy map.

A :class:`QueryOutcome` is what the service returns and what ``serve``
emits as one NDJSON line: either a success (MST weight / edge-set
digest / counters-derived metrics — enough to prove bit-identity
between cold and warm runs) or a typed failure that maps onto the
CLI's uniform exit codes (3 input / 4 verify / 5 unrecovered fault /
6 overloaded / 1 generic).  A failure never carries a partial result
and never escapes as an exception: one bad query must not poison its
batch.

With the serving policy on (PR 7), four more statuses appear:
``shed`` (admission control or an open breaker rejected it before it
ran — exit code 6), ``degraded`` (answered, but via a stale cached
result or the serial fallback; carries the full success payload plus
``policy`` metadata saying how), ``quarantined`` (a poison spec
refused before the retry loop), and ``cancelled`` (still queued when
the service shut down).  ``degraded`` counts as *served* for
availability accounting; the rest count against it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from ..baselines.errors import NotConnectedError
from ..errors import (
    EXIT_INPUT_ERROR,
    EXIT_OVERLOADED,
    EXIT_UNRECOVERED_FAULT,
    EXIT_VERIFY_FAILED,
    DeadlineExceeded,
    DeviceFault,
    GraphFormatError,
    InvariantViolation,
    Overloaded,
    ReproError,
    VerificationError,
)

__all__ = [
    "QueryOutcome",
    "batch_exit_code",
    "classify_error",
    "edges_digest",
]

SCHEMA = "repro.service.outcome/v1"

# How an outcome was served: a real execution, the result cache, by
# attaching to an identical in-flight execution, or (degraded only) a
# stale cache entry / the serial-Kruskal fallback.
SERVED_EXECUTE = "execute"
SERVED_CACHE = "result-cache"
SERVED_COALESCED = "coalesced"
SERVED_STALE = "stale-cache"
SERVED_FALLBACK = "serial-fallback"

# Statuses that carry the full success payload in to_dict().
_PAYLOAD_STATUSES = ("ok", "degraded")


def classify_error(exc: BaseException) -> tuple[str, int]:
    """Map an exception onto ``(error_kind, exit_code)``.

    The same families → codes mapping as ``repro.cli.main`` so batch
    results and single-shot commands report failures identically.
    """
    if isinstance(exc, GraphFormatError):
        return "input", EXIT_INPUT_ERROR
    if isinstance(exc, VerificationError):
        return "verify", EXIT_VERIFY_FAILED
    if isinstance(exc, (DeviceFault, InvariantViolation)):
        return "fault", EXIT_UNRECOVERED_FAULT
    if isinstance(exc, Overloaded):
        return "overloaded", EXIT_OVERLOADED
    if isinstance(exc, DeadlineExceeded):
        return "timeout", 1
    if isinstance(exc, NotConnectedError):
        return "not-connected", 1
    if isinstance(exc, ReproError):
        return "error", 1
    return "internal", 1


def edges_digest(result) -> str:
    """Order-independent digest of the selected MST edge set.

    Hashes the ``(u, v, w)`` arrays in canonical (CSR) edge order —
    two results with equal digests selected the same weighted edges.
    """
    h = hashlib.blake2b(digest_size=8)
    for arr in result.edges():
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class QueryOutcome:
    """One query's result summary (see module docstring)."""

    id: str
    input: str = ""
    code: str = "ECL-MST"
    system: int = 2
    scale: float = 0.0
    # "ok" | "error" | "timeout" | "shed" | "degraded" | "quarantined"
    # | "cancelled"
    status: str = "ok"
    served_by: str = SERVED_EXECUTE
    error_kind: str = ""
    error: str = ""
    exit_code: int = 0
    # Success payload — everything needed to check bit-identity.
    algorithm: str = ""
    graph: dict = field(default_factory=dict)  # fingerprint
    total_weight: int = 0
    num_mst_edges: int = 0
    rounds: int = 0
    modeled_seconds: float = 0.0
    mst_digest: str = ""
    metrics: dict = field(default_factory=dict)
    resilience: dict = field(default_factory=dict)
    # Serving-policy metadata (retries used, staleness, shed reason…).
    policy: dict = field(default_factory=dict)
    # Service accounting (never part of identity comparisons).
    result_key: str = ""
    load_seconds: float = 0.0
    run_seconds: float = 0.0
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def served(self) -> bool:
        """The client got an answer (full-fidelity or degraded).

        This is what the availability SLO counts: a degraded answer is
        still an answer; shed/quarantined/cancelled/error are not.
        """
        return self.status in _PAYLOAD_STATUSES

    @property
    def cache_hit(self) -> bool:
        """Served without executing (result cache or coalesced)."""
        return self.ok and self.served_by != SERVED_EXECUTE

    def identity(self) -> dict:
        """The fields that must be bit-identical between a cold run and
        any cached/coalesced serving of the same query."""
        return {
            "algorithm": self.algorithm,
            "graph_digest": self.graph.get("digest"),
            "total_weight": self.total_weight,
            "num_mst_edges": self.num_mst_edges,
            "rounds": self.rounds,
            "modeled_seconds": self.modeled_seconds,
            "mst_digest": self.mst_digest,
            "metrics": self.metrics,
        }

    def replay_identity(self) -> dict:
        """The fields a deterministic replay must reproduce exactly.

        Extends :meth:`identity` with the typed-failure surface, so it
        covers error outcomes (where the payload fields are absent)
        as well as successes — the comparison contract of
        ``repro-mst replay``.
        """
        out = {
            "status": self.status,
            "error_kind": self.error_kind,
            "exit_code": self.exit_code,
        }
        if self.status in _PAYLOAD_STATUSES:
            out.update(self.identity())
        return out

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def failure(
        cls,
        query,
        exc: BaseException,
        *,
        status: str = "error",
        latency_s: float = 0.0,
    ) -> "QueryOutcome":
        kind, code = classify_error(exc)
        if status == "timeout":
            kind, code = "timeout", 1
        elif status == "cancelled":
            kind, code = "cancelled", 1
        elif status == "shed":
            kind, code = "overloaded", EXIT_OVERLOADED
        elif status == "quarantined":
            kind, code = "quarantined", EXIT_OVERLOADED
        return cls(
            id=getattr(query, "id", "?") or "?",
            input=getattr(query, "input", ""),
            code=getattr(query, "code", ""),
            system=getattr(query, "system", 0),
            scale=getattr(query, "scale", 0.0),
            status=status,
            error_kind=kind,
            error=str(exc),
            exit_code=code,
            latency_s=latency_s,
        )

    # ------------------------------------------------------------------
    # Serialization (NDJSON lines)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["schema"] = SCHEMA
        d["cache_hit"] = self.cache_hit
        if self.status in _PAYLOAD_STATUSES:
            if self.ok:
                d.pop("error_kind"), d.pop("error")
            elif not self.error:
                d.pop("error_kind"), d.pop("error")
        else:
            for k in (
                "algorithm",
                "graph",
                "total_weight",
                "num_mst_edges",
                "rounds",
                "modeled_seconds",
                "mst_digest",
                "metrics",
                "resilience",
            ):
                d.pop(k)
        if not self.resilience:
            d.pop("resilience", None)
        if not self.policy:
            d.pop("policy", None)
        return d

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "QueryOutcome":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


def batch_exit_code(outcomes) -> int:
    """The uniform batch exit code: 0 when every query succeeded, else
    the *highest* per-query code so the most severe failure family wins
    (6 overloaded > 5 unrecovered > 4 verify > 3 input > 1
    generic/timeout).  Degraded answers carry code 0 — the client was
    served."""
    return max((o.exit_code for o in outcomes), default=0)
