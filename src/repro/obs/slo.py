"""Declarative service-level objectives with windowed burn rates.

An :class:`SLOSpec` names an objective over the service's recent
traffic; an :class:`SLOTracker` keeps one record per finished query
for the last ``window_s`` seconds and evaluates each spec into an
:class:`SLOStatus` carrying the measured SLI, the fraction of error
budget consumed, and the **burn rate** — the standard ratio

    burn = (1 - SLI) / (1 - objective)

so ``burn == 1`` means the service is spending its error budget
exactly as fast as the objective allows, and ``burn > alert_burn``
raises an ``slo.burn`` event (see :mod:`~repro.obs.events`) on the
transition into the alerting state (and an ``slo.recovered`` event on
the way back out).  The service evaluates as each query finishes and
on every :meth:`~repro.service.engine.MSTService.slo_statuses` read,
so a burn is reported without any reader; ``/statusz`` and postmortem
bundles take a :meth:`SLOTracker.statuses` snapshot that decides
nothing.

Spec kinds:

* ``availability`` — SLI is the fraction of queries in the window that
  completed ``ok``.
* ``latency`` — SLI is the fraction of queries served within
  ``threshold_s`` seconds.
* ``zero`` — a hard objective on a forbidden-event count (the
  resilience guarantee *escaped faults = 0*): SLI is 1.0 while the
  window holds zero such events and 0.0 otherwise, so a single escape
  saturates the burn rate.
* ``shed`` — SLI is the fraction of queries in the window that were
  *not* load-shed (admission control / open breaker).  Shedding is
  deliberate, but sustained shedding means the service is turning
  users away — the objective bounds how much of that is acceptable.

The default spec set (:data:`DEFAULT_SLOS`) encodes the repo's serving
promises: 99% availability, 95% of queries under one second, zero
escaped faults, and at most 1% of queries shed.

The tracker's window is also the service's one view of recent
traffic: ``service.p50_latency`` / ``service.p95_latency`` /
``service.qps`` and the ``/statusz`` ``window`` block read
:meth:`SLOTracker.quantile`, :meth:`SLOTracker.count` and
:meth:`SLOTracker.summary`, so every windowed number covers the same
set of queries as the SLIs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .events import NULL_EVENTS
from .metrics import nearest_rank

__all__ = ["SLOSpec", "SLOStatus", "SLOTracker", "DEFAULT_SLOS"]

_KINDS = ("availability", "latency", "zero", "shed")

# The most records the window holds; a burst past it sheds the oldest.
MAX_RECORDS = 100_000


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective (see module docstring for kinds)."""

    name: str
    kind: str
    objective: float = 0.99  # target fraction of good events
    threshold_s: float | None = None  # latency kind: the "good" bound
    alert_burn: float = 1.0  # burn rate that starts alerting

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; choose from {', '.join(_KINDS)}"
            )
        if not 0.0 < self.objective <= 1.0:
            raise ValueError("objective must be in (0, 1]")
        if self.kind == "latency" and (
            self.threshold_s is None or self.threshold_s <= 0
        ):
            raise ValueError("latency SLOs need a positive threshold_s")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "threshold_s": self.threshold_s,
            "alert_burn": self.alert_burn,
        }


@dataclass
class SLOStatus:
    """One spec evaluated against the current window.

    ``exemplar`` is the ID of the most recent query that spent this
    spec's error budget (failed / slow / escaped / shed) — the first
    thing to pull out of the flight recorder when the SLO burns.
    """

    spec: SLOSpec
    sli: float
    good: float
    total: float
    burn_rate: float
    alerting: bool
    exemplar: str | None = None

    @property
    def healthy(self) -> bool:
        return not self.alerting

    def to_dict(self) -> dict:
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "objective": self.spec.objective,
            "sli": self.sli,
            "good": self.good,
            "total": self.total,
            "burn_rate": self.burn_rate,
            "alerting": self.alerting,
            "exemplar": self.exemplar,
        }


DEFAULT_SLOS: tuple[SLOSpec, ...] = (
    SLOSpec(name="availability", kind="availability", objective=0.99),
    SLOSpec(
        name="latency-1s", kind="latency", objective=0.95, threshold_s=1.0
    ),
    # The resilience headline: silent corruption never ships.
    SLOSpec(name="escaped-faults", kind="zero", objective=1.0),
    # The overload headline: at most 1% of recent queries load-shed.
    SLOSpec(name="shed-rate", kind="shed", objective=0.99),
)


class _Record(NamedTuple):
    ts: float
    latency_s: float
    ok: bool
    shed: bool
    escaped: int
    query_id: str | None


class SLOTracker:
    """The window of finished queries; evaluates the specs over it.

    ``events`` receives ``slo.burn`` / ``slo.recovered`` transitions;
    the default :data:`~repro.obs.events.NULL_EVENTS` keeps evaluation
    silent.  ``clock`` stamps each record and ends each window (the
    default is ``time.monotonic``).  A record is live while its
    timestamp is inside ``(now - window_s, now]``.
    """

    def __init__(
        self,
        specs: tuple[SLOSpec, ...] = DEFAULT_SLOS,
        *,
        window_s: float = 60.0,
        events=NULL_EVENTS,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.specs = tuple(specs)
        self.window_s = float(window_s)
        self.events = events
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        # Time-ordered: each record is stamped under the lock.
        self._records: deque[_Record] = deque()
        # Running tallies over the live records, per spec: how many
        # spend its budget, and the newest such record with a query ID
        # (the exemplar).  Kept on append and prune, so evaluation
        # never scans the window.
        self._bad = [0] * len(self.specs)
        self._tagged: list[_Record | None] = [None] * len(self.specs)
        self._escaped = 0  # escaped faults across the live records
        self._alerting = [False] * len(self.specs)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        *,
        ok: bool,
        latency_s: float,
        escaped: int = 0,
        shed: bool = False,
        query_id: str | None = None,
    ) -> None:
        """One finished query: success flag, latency, escaped-fault
        count, and whether the service load-shed it instead of running
        it.  ``query_id`` is the exemplar surfaced in
        :class:`SLOStatus`, burn events and :meth:`summary`."""
        with self._lock:
            now = self._clock()
            r = _Record(now, float(latency_s), ok, shed, escaped, query_id)
            if len(self._records) == MAX_RECORDS:
                self._forget(self._records.popleft())
            self._records.append(r)
            self._escaped += r.escaped
            for i, spec in enumerate(self.specs):
                if self._spends_budget(spec, r):
                    self._bad[i] += 1
                    if r.query_id:
                        self._tagged[i] = r
            self._prune(now)

    def _forget(self, r: _Record) -> None:
        """Take the oldest live record out of the running tallies.

        Records leave oldest first, so when a spec's exemplar leaves,
        no newer budget-spending record with an ID is live."""
        self._escaped -= r.escaped
        for i, spec in enumerate(self.specs):
            if self._spends_budget(spec, r):
                self._bad[i] -= 1
                if self._tagged[i] is r:
                    self._tagged[i] = None

    def _prune(self, now: float) -> None:
        cutoff = now - self.window_s
        records = self._records
        while records and records[0].ts <= cutoff:
            self._forget(records.popleft())

    def _live(self) -> list[_Record]:
        with self._lock:
            self._prune(self._clock())
            return list(self._records)

    # ------------------------------------------------------------------
    # Window views
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Finished queries in the window."""
        with self._lock:
            self._prune(self._clock())
            return len(self._records)

    def quantile(self, q: float) -> float:
        """Nearest-rank latency quantile over the window (``0.0`` when
        the window is empty; ``q`` outside [0, 1] raises)."""
        return nearest_rank(sorted(r.latency_s for r in self._live()), q)

    def summary(self) -> dict:
        """count/mean/p50/p95/max latency over the window.

        ``max_exemplar`` names the slowest query that carried an ID —
        the one to pull up when the p95 looks wrong.  The empty window
        keeps the all-zero shape without it.
        """
        live = self._live()
        xs = sorted(r.latency_s for r in live)
        if not xs:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        out = {
            "count": len(xs),
            "mean": sum(xs) / len(xs),
            "p50": nearest_rank(xs, 0.5),
            "p95": nearest_rank(xs, 0.95),
            "max": xs[-1],
        }
        tagged = [r for r in live if r.query_id is not None]
        if tagged:
            out["max_exemplar"] = max(tagged, key=lambda r: r.latency_s).query_id
        return out

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def _spends_budget(spec: SLOSpec, r: _Record) -> bool:
        if spec.kind == "availability":
            return not r.ok
        if spec.kind == "latency":
            return r.latency_s > spec.threshold_s
        if spec.kind == "shed":
            return r.shed
        return r.escaped > 0  # zero

    def _sli(
        self, i: int, spec: SLOSpec, live: int
    ) -> tuple[float, float, float, str | None]:
        """(sli, good, total, exemplar) from the running tallies over
        ``live`` records: the exemplar is the latest budget-spending
        query of the window."""
        bad = self._bad[i]
        tagged = self._tagged[i]
        exemplar = tagged.query_id if tagged is not None else None
        if spec.kind == "zero":
            sli = 0.0 if bad else 1.0
            return sli, sli, float(self._escaped), exemplar
        total = float(live)
        if total == 0:
            return 1.0, 0.0, 0.0, None  # an idle window burns no budget
        good = total - bad
        return good / total, good, total, exemplar

    def _statuses_locked(self) -> list[SLOStatus]:
        self._prune(self._clock())
        live = len(self._records)
        out = []
        for i, spec in enumerate(self.specs):
            sli, good, total, exemplar = self._sli(i, spec, live)
            budget = 1.0 - spec.objective
            if budget <= 0.0:  # exact objective (the "zero" kind)
                burn = 0.0 if sli >= 1.0 else float("inf")
            else:
                burn = (1.0 - sli) / budget
            alerting = burn > spec.alert_burn
            out.append(
                SLOStatus(
                    spec=spec,
                    sli=sli,
                    good=good,
                    total=total,
                    burn_rate=burn,
                    alerting=alerting,
                    exemplar=exemplar if alerting else None,
                )
            )
        return out

    def statuses(self) -> list[SLOStatus]:
        """Every spec's current status, deciding no transitions.

        A snapshot for readers that must not alert — a postmortem
        bundle's ``/statusz`` copy is built inside a capture, where a
        ``slo.burn`` could not capture its own bundle; the next
        :meth:`evaluate` still reports the transition.
        """
        with self._lock:
            return self._statuses_locked()

    def evaluate(self) -> list[SLOStatus]:
        """Every spec's current status; emits burn-state transitions.

        O(#specs): it reads the running tallies, never the window.
        Transitions are decided under the lock but emitted after it is
        released — a ``slo.burn`` may capture a postmortem bundle.
        """
        transitions = []
        with self._lock:
            out = self._statuses_locked()
            for i, st in enumerate(out):
                if st.alerting == self._alerting[i]:
                    continue
                self._alerting[i] = st.alerting
                fields = {
                    "slo": st.spec.name,
                    "kind": st.spec.kind,
                    "sli": round(st.sli, 6),
                    "burn_rate": (
                        st.burn_rate if st.burn_rate != float("inf") else "inf"
                    ),
                    "objective": st.spec.objective,
                }
                if st.exemplar:
                    fields["exemplar"] = st.exemplar
                transitions.append((st.alerting, fields))
        for alerting, fields in transitions:
            self.events.emit(
                "slo.burn" if alerting else "slo.recovered",
                level="error" if alerting else "info",
                **fields,
            )
        return out
