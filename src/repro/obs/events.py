"""Structured, leveled event log with correlation IDs.

Where :mod:`~repro.obs.trace` answers "where did the time go" after a
run, the event log answers "what is the system doing *right now*": the
service engine emits enqueue/dedup/cache-hit/timeout events, the
resilience ladder emits fault/violation/recovery events, the serving
policy emits shed/degrade/quarantine decisions plus the
edge-triggered ``breaker.open``/``breaker.closed`` transitions, and
the core solver emits phase/round transitions — all as flat,
JSON-renderable
:class:`Event` records that a live tail (or a post-hoc join against
the span trace) can follow.

Correlation is hierarchical: a service **query ID** binds every event
of one query, the solver's **run ID** binds every event of one
``ecl_mst`` invocation, and a **span ID** (the active
:class:`~repro.obs.trace.Span`'s per-tracer ID) ties an event to the
exact trace region it happened in, so an NDJSON event log joins
against its exported trace.

Zero-overhead contract: every emitting code path holds the
:data:`NULL_EVENTS` singleton by default, whose methods are no-ops and
whose ``enabled`` flag lets hot loops skip building event fields
entirely.  Enabling events never changes solver results or modeled
counters — events only record what already happened.

Sinks:

* :class:`NDJSONSink`  — one ``json.dumps`` line per event (machine tail)
* :class:`ConsoleSink` — aligned human-readable lines (stderr tail)
* :class:`ListSink`    — in-memory capture (tests, the admin surface)

The process-global log (:func:`configure_events` /
:func:`get_event_log`) backs the ``repro-mst --log-level/--log-json``
CLI flags; library callers can also pass an explicit log down the
stack, which always wins over the global.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, TextIO

__all__ = [
    "LEVELS",
    "Event",
    "EventLog",
    "BoundEventLog",
    "NullEventLog",
    "NULL_EVENTS",
    "NDJSONSink",
    "ConsoleSink",
    "ListSink",
    "configure_events",
    "format_event_line",
    "get_event_log",
    "reset_events",
    "new_run_id",
]

# Severity ladder (syslog-style subset).  ``off`` is a pseudo-level
# above everything: a log configured at ``off`` drops every event.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40, "off": 99}


@dataclass
class Event:
    """One structured event: a name, a level, a wall timestamp, and
    flat JSON-scalar fields (correlation IDs included)."""

    name: str
    level: str = "info"
    ts: float = 0.0  # wall clock, time.time() seconds
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"ts": self.ts, "level": self.level, "event": self.name}
        d.update(self.fields)
        return d

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class NDJSONSink:
    """Writes one JSON line per event to a text stream."""

    def __init__(self, stream: TextIO) -> None:
        self.stream = stream
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        line = event.to_json_line()
        with self._lock:
            self.stream.write(line + "\n")
            self.stream.flush()


def format_event_line(
    ts: float, level: str, name: str, fields: dict
) -> str:
    """One human-readable event line (``HH:MM:SS.mmm LEVEL name k=v``).

    Shared by :class:`ConsoleSink` and the flight recorder's postmortem
    timeline, so a live tail and an incident report read identically.
    """
    clock = time.strftime("%H:%M:%S", time.localtime(ts))
    millis = int((ts % 1) * 1000)
    kv = " ".join(f"{k}={v}" for k, v in fields.items())
    return (
        f"{clock}.{millis:03d} {level.upper():7s} {name:24s} {kv}".rstrip()
    )


class ConsoleSink:
    """Human-readable lines (``HH:MM:SS.mmm LEVEL name k=v ...``)."""

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        line = format_event_line(
            event.ts, event.level, event.name, event.fields
        )
        with self._lock:
            self.stream.write(line + "\n")
            self.stream.flush()


class ListSink:
    """Captures events in memory (tests and the admin ring buffer)."""

    def __init__(self, maxlen: int | None = None) -> None:
        self.events: list[Event] = []
        self.maxlen = maxlen
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        with self._lock:
            self.events.append(event)
            if self.maxlen is not None and len(self.events) > self.maxlen:
                del self.events[: len(self.events) - self.maxlen]


# ----------------------------------------------------------------------
# Loggers
# ----------------------------------------------------------------------
class NullEventLog:
    """The disabled log: every operation is a cheap no-op.

    Shared as the :data:`NULL_EVENTS` singleton so emitting code can
    call unconditionally; hot paths may additionally guard on
    ``events.enabled`` to avoid building field dicts.
    """

    enabled = False

    def emit(self, name: str, level: str = "info", **fields) -> None:
        pass

    def bind(self, **fields) -> "NullEventLog":
        return self

    def would_emit(self, level: str) -> bool:
        return False


NULL_EVENTS = NullEventLog()


class EventLog:
    """A leveled event log fanning out to one or more sinks.

    ``level`` is the minimum severity kept; anything quieter is
    dropped before the sinks see it.  ``clock`` defaults to
    ``time.time`` and exists for deterministic tests.
    """

    enabled = True

    def __init__(
        self,
        *,
        level: str = "info",
        sinks: tuple | list = (),
        clock: Callable[[], float] | None = None,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown level {level!r}; choose from {', '.join(LEVELS)}"
            )
        self.level = level
        self._threshold = LEVELS[level]
        self.sinks = list(sinks)
        self._clock = clock or time.time

    def would_emit(self, level: str) -> bool:
        return LEVELS.get(level, 0) >= self._threshold

    def emit(self, name: str, level: str = "info", **fields) -> None:
        if LEVELS.get(level, 0) < self._threshold:
            return
        event = Event(name=name, level=level, ts=self._clock(), fields=fields)
        for sink in self.sinks:
            sink.emit(event)

    def bind(self, **fields) -> "BoundEventLog":
        """A child log whose events all carry ``fields`` (correlation
        IDs such as ``query=...`` / ``run=...``)."""
        return BoundEventLog(self, dict(fields))


class BoundEventLog:
    """An :class:`EventLog` view with correlation fields baked in."""

    enabled = True

    def __init__(self, parent, bound: dict) -> None:
        self._parent = parent
        self.bound = bound

    def would_emit(self, level: str) -> bool:
        return self._parent.would_emit(level)

    def emit(self, name: str, level: str = "info", **fields) -> None:
        self._parent.emit(name, level, **{**self.bound, **fields})

    def bind(self, **fields) -> "BoundEventLog":
        return BoundEventLog(self._parent, {**self.bound, **fields})


# ----------------------------------------------------------------------
# Process-global log (CLI flags) and run-ID allocation
# ----------------------------------------------------------------------
_global_log: EventLog | NullEventLog = NULL_EVENTS
_global_file: io.TextIOBase | None = None
_run_counter = 0
_run_lock = threading.Lock()


def new_run_id() -> str:
    """Monotonic per-process run correlation ID (``run-000001`` ...)."""
    global _run_counter
    with _run_lock:
        _run_counter += 1
        return f"run-{_run_counter:06d}"


def configure_events(
    *,
    level: str = "info",
    json_path: str | None = None,
    console: bool | None = None,
    extra_sinks: tuple | list = (),
) -> EventLog | NullEventLog:
    """Install the process-global event log (the CLI entry point).

    ``json_path`` adds an :class:`NDJSONSink` on that file (``"-"`` =
    stdout); ``console`` adds a :class:`ConsoleSink` on stderr and
    defaults to on exactly when no JSON sink was requested.  A level
    of ``"off"`` with no sinks resets to :data:`NULL_EVENTS`.
    """
    global _global_log, _global_file
    reset_events()
    sinks: list = list(extra_sinks)
    if json_path:
        if json_path == "-":
            sinks.append(NDJSONSink(sys.stdout))
        else:
            _global_file = open(json_path, "w")
            sinks.append(NDJSONSink(_global_file))
    if console is None:
        console = not json_path
    if console and level != "off":
        sinks.append(ConsoleSink())
    if level == "off" or not sinks:
        return _global_log
    _global_log = EventLog(level=level, sinks=sinks)
    return _global_log


def get_event_log() -> EventLog | NullEventLog:
    """The process-global log (``NULL_EVENTS`` unless configured)."""
    return _global_log


def reset_events() -> None:
    """Drop the global log back to :data:`NULL_EVENTS` (closing any
    file sink it owned)."""
    global _global_log, _global_file
    _global_log = NULL_EVENTS
    if _global_file is not None:
        try:
            _global_file.close()
        finally:
            _global_file = None
