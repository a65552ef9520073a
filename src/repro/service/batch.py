"""Batch front end: NDJSON in/out and suite sweeps.

The ``repro-mst serve --batch FILE`` format is one JSON object per
line (see :class:`~repro.service.query.Query` for the fields)::

    {"id": "q1", "input": "internet", "scale": 0.06}
    {"id": "q2", "input": "internet", "scale": 0.06, "config": {"filtering": false}}

Output is one :class:`~repro.service.outcome.QueryOutcome` JSON object
per input line, in input order.  A malformed line becomes a failed
*outcome* for that line (``error_kind="input"``) — the batch keeps
going, and the batch exit code reports the most severe per-query code
(3 input / 4 verify / 5 unrecovered / 1 generic), uniformly with the
single-shot CLI commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .engine import MSTService
from .outcome import QueryOutcome, batch_exit_code
from .query import Query, QueryError

__all__ = [
    "BatchSummary",
    "parse_batch_lines",
    "run_batch_lines",
    "summarize",
    "sweep_queries",
]


def parse_batch_lines(lines: Iterable[str]) -> list[Query | QueryOutcome]:
    """Parse NDJSON lines into queries; malformed lines become
    pre-failed outcomes so their batch neighbors still run."""
    items: list[Query | QueryOutcome] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            items.append(Query.from_json_line(line))
        except QueryError as exc:
            items.append(
                QueryOutcome.failure(
                    _LinePlaceholder(f"line-{lineno}"),
                    QueryError(f"line {lineno}: {exc}"),
                )
            )
    return items


@dataclass
class _LinePlaceholder:
    """Stand-in query identity for a line that never parsed."""

    id: str
    input: str = ""
    code: str = ""
    system: int = 0
    scale: float = 0.0


def run_batch_lines(
    lines: Iterable[str], service: MSTService
) -> list[QueryOutcome]:
    return service.run_batch(parse_batch_lines(lines))


# ----------------------------------------------------------------------
# Suite sweeps
# ----------------------------------------------------------------------
def sweep_queries(
    selection: str,
    *,
    scale: float,
    code: str = "ECL-MST",
    system: int = 2,
    repeat: int = 1,
) -> list[Query]:
    """Queries for one pass (or ``repeat`` passes) over the generator
    suite: ``"all"``, ``"mst"`` (single-component inputs), or a
    comma-separated list of input names."""
    from ..generators.suite import INPUT_NAMES, MST_INPUT_NAMES

    if selection == "all":
        names: Sequence[str] = INPUT_NAMES
    elif selection == "mst":
        names = MST_INPUT_NAMES
    else:
        names = tuple(s.strip() for s in selection.split(",") if s.strip())
        unknown = set(names) - set(INPUT_NAMES)
        if unknown:
            raise QueryError(
                f"unknown suite input(s) {', '.join(sorted(unknown))}; "
                f"choose from {', '.join(INPUT_NAMES)}"
            )
    if not names:
        raise QueryError("empty sweep selection")
    return [
        Query(
            input=name,
            id=f"{name}#r{rep}",
            code=code,
            system=system,
            scale=scale,
        )
        for rep in range(max(1, repeat))
        for name in names
    ]


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
@dataclass
class BatchSummary:
    """Aggregates of one served batch, renderable as a summary."""

    total: int = 0
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    cache_hits: int = 0
    # Serving-policy outcomes (all zero — and omitted from render —
    # without a policy attached).
    shed: int = 0
    degraded: int = 0
    quarantined: int = 0
    cancelled: int = 0
    exit_code: int = 0
    wall_seconds: float = 0.0
    metrics: dict = field(default_factory=dict)

    @property
    def qps(self) -> float:
        return self.total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def render(self) -> str:
        lines = [
            f"served {self.total} queries in {self.wall_seconds:.3f}s "
            f"({self.qps:.1f} queries/s)",
            f"  ok {self.ok}  errors {self.errors}  timeouts {self.timeouts}"
            f"  cache hits {self.cache_hits} "
            f"(ratio {self.cache_hit_ratio:.2f})",
        ]
        if self.shed or self.degraded or self.quarantined or self.cancelled:
            lines.append(
                f"  shed {self.shed}  degraded {self.degraded}"
                f"  quarantined {self.quarantined}"
                f"  cancelled {self.cancelled}"
            )
        for key in (
            "service.p50_latency",
            "service.p95_latency",
            "service.executed",
            "service.graph_cache_hits",
        ):
            if key in self.metrics:
                lines.append(f"  {key:26s} {self.metrics[key]:.6g}")
        lines.append(f"exit code: {self.exit_code}")
        return "\n".join(lines)


def summarize(
    outcomes: Sequence[QueryOutcome],
    service: MSTService,
    *,
    wall_seconds: float,
) -> BatchSummary:
    by_status = {s: sum(1 for o in outcomes if o.status == s) for s in
                 ("error", "timeout", "shed", "degraded", "quarantined",
                  "cancelled")}
    return BatchSummary(
        total=len(outcomes),
        ok=sum(1 for o in outcomes if o.ok),
        errors=by_status["error"],
        timeouts=by_status["timeout"],
        shed=by_status["shed"],
        degraded=by_status["degraded"],
        quarantined=by_status["quarantined"],
        cancelled=by_status["cancelled"],
        cache_hits=sum(1 for o in outcomes if o.cache_hit),
        exit_code=batch_exit_code(outcomes),
        wall_seconds=wall_seconds,
        metrics=service.metrics(),
    )
