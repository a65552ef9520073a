"""Lightweight span tracer for runs on the simulated substrate.

A trace is a tree of :class:`Span` objects following the hierarchy

    run > phase > round > kernel

Spans carry a name, a kind, free-form attributes and two clocks, both
stamped by the :class:`Tracer`: *wall* time (host ``perf_counter``)
and *modeled* time on the simulated device, which only the recorded
kernels advance, so exported traces line up with the cost model
rather than with Python's execution speed.

Tracing is strictly opt-in and zero-overhead by default: every traced
code path holds a :data:`NULL_TRACER` whose methods are no-ops, and
the hot :meth:`~repro.gpusim.costmodel.Device.launch` path guards on
``tracer.enabled`` so a disabled run performs no extra work at all.
Enabling a tracer never changes algorithm behaviour — it only records
what already happened.

A span can also write the events that mark its boundaries: given an
event log (``log=``) and event names (``on_open=``/``on_close=``), it
emits them with its attrs plus ``span=<id>`` when it opens and when
its block exits without an exception.  The null tracer does the same
with ``span=0`` while the log listens at that level, so the event log
and the trace share one writer per boundary.

Usage::

    from repro import ecl_mst
    from repro.obs import Tracer

    tracer = Tracer()
    result = ecl_mst(graph, tracer=tracer)
    root = tracer.roots[0]              # the "run" span
    for span, depth, parent in tracer.walk():
        print("  " * depth, span.name, span.modeled_seconds)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from .events import NULL_EVENTS

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "host_hotspots"]


@dataclass
class Span:
    """One timed region of a run.

    ``modeled_start``/``modeled_end`` are seconds on the tracer's
    modeled clock; wall times are host ``perf_counter`` seconds.
    """

    name: str
    kind: str = "span"
    attrs: dict = field(default_factory=dict)
    wall_start: float = 0.0
    wall_end: float | None = None
    modeled_start: float = 0.0
    modeled_end: float = 0.0
    children: list["Span"] = field(default_factory=list)
    # Per-tracer correlation ID (1-based creation order; 0 = unassigned).
    # Structured events reference this so an NDJSON event log can be
    # joined against the exported trace.
    id: int = 0

    @property
    def wall_seconds(self) -> float:
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start

    @property
    def modeled_seconds(self) -> float:
        return self.modeled_end - self.modeled_start

    def annotate(self, **attrs) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)

    def walk(
        self, depth: int = 0, parent: "Span | None" = None
    ) -> Iterator[tuple["Span", int, "Span | None"]]:
        """Depth-first ``(span, depth, parent)`` traversal."""
        yield self, depth, parent
        for child in self.children:
            yield from child.walk(depth + 1, self)

    def to_dict(self) -> dict:
        """JSON-friendly representation (children flattened out)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "id": self.id,
            "wall_start": self.wall_start,
            "wall_seconds": self.wall_seconds,
            "modeled_start": self.modeled_start,
            "modeled_seconds": self.modeled_seconds,
            "attrs": dict(self.attrs),
            "num_children": len(self.children),
        }


class _NullSpanContext:
    """Reusable no-op context manager mimicking a span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpanContext()


@contextmanager
def _logged_span(sp: Span, log, on_open, on_close, level):
    """The null tracer's span while its log listens: no clock and no
    tree, only the attrs its boundary events carry (with ``span=0``)."""
    if on_open:
        log.emit(on_open, level, **sp.attrs, span=0)
    yield sp
    if on_close:
        log.emit(on_close, level, **sp.attrs, span=0)


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op.

    Shared as the :data:`NULL_TRACER` singleton so traced code can call
    tracer methods unconditionally; hot paths may additionally guard on
    ``tracer.enabled`` to skip building arguments.  A span that names
    boundary events still writes them while ``log`` would keep them;
    otherwise it is the shared no-op span.
    """

    enabled = False

    def span(
        self, name: str, kind: str = "span", /, *, log=NULL_EVENTS,
        on_open: str | None = None, on_close: str | None = None, level: str = "info", **attrs,
    ):
        if (on_open or on_close) and log.would_emit(level):
            return _logged_span(Span(name, kind, attrs), log, on_open, on_close, level)
        return _NULL_SPAN

    def mark(self, name: str, kind: str = "span", /, **kw):
        """A zero-length span: writes its boundary events at once."""
        with self.span(name, kind, **kw) as sp:
            return sp

    def annotate(self, **attrs) -> None:
        pass

    def kernel(self, counters, attrs=None) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Collects a forest of nested spans from one or more runs.

    The tracer owns both clocks of every span.  ``modeled_now`` starts
    at 0 and only goes up: each recorded kernel takes the interval
    ``[modeled_now, modeled_now + its modeled seconds]`` and advances
    it, so runs, cells and queries sharing one tracer follow each other
    on one timeline.  The wall mark is reset at construction and at
    every span open, span close and kernel record; a kernel's wall
    interval runs from the mark to its record, which is the kernel
    body because the device launch is a kernel function's last step.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self.modeled_now = 0.0
        self._wall_mark = time.perf_counter()

    def _add(self, sp: Span) -> None:
        self._next_id += 1
        sp.id = self._next_id
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(
        self, name: str, kind: str = "span", /, *, log=NULL_EVENTS,
        on_open: str | None = None, on_close: str | None = None, level: str = "info", **attrs,
    ):
        """Open a nested span for the duration of the ``with`` block.

        ``name`` and ``kind`` are positional-only, so ``attrs`` may
        hold any key (a detection's fault ``kind``, say).  ``log``
        receives the ``on_open`` event before the span starts and the
        ``on_close`` event after it ends without an exception, each
        carrying the span's attrs at that moment plus ``span=<id>``.
        """
        sp = Span(
            name=name,
            kind=kind,
            attrs=dict(attrs),
            modeled_start=self.modeled_now,
            modeled_end=self.modeled_now,
        )
        self._add(sp)
        if on_open:
            log.emit(on_open, level, **sp.attrs, span=sp.id)
        sp.wall_start = self._wall_mark = time.perf_counter()
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.wall_end = self._wall_mark = time.perf_counter()
            sp.modeled_end = self.modeled_now
        if on_close:
            log.emit(on_close, level, **sp.attrs, span=sp.id)

    def mark(self, name: str, kind: str = "span", /, **kw) -> Span:
        """A zero-length span: writes its boundary events at once."""
        with self.span(name, kind, **kw) as sp:
            return sp

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open span (if any)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def kernel(self, counters, attrs: dict | None = None) -> Span:
        """Record one simulated kernel launch as a leaf span.

        ``counters`` is the launch's
        :class:`~repro.gpusim.counters.KernelCounters`; the span's
        modeled interval is ``[modeled_now, modeled_now +
        counters.modeled_seconds]``, after which the clock advances.
        ``attrs`` are the kernel's own facts beyond its counters.
        """
        now = time.perf_counter()
        start = self.modeled_now
        self.modeled_now = start + counters.modeled_seconds
        sp = Span(
            name=counters.name,
            kind="kernel",
            wall_start=self._wall_mark,
            wall_end=now,
            modeled_start=start,
            modeled_end=self.modeled_now,
            attrs={
                "items": counters.items,
                "cycles": counters.cycles,
                "bytes": counters.bytes,
                "atomics": counters.atomics,
                "atomics_skipped": counters.atomics_skipped,
                "find_jumps": counters.find_jumps,
                "modeled_seconds": counters.modeled_seconds,
                **(attrs or {}),
            },
        )
        self._wall_mark = now
        self._add(sp)
        return sp

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def walk(self) -> Iterator[tuple[Span, int, Span | None]]:
        """Depth-first ``(span, depth, parent)`` over every root."""
        for root in self.roots:
            yield from root.walk()

    def spans(self, kind: str | None = None) -> list[Span]:
        """All spans in depth-first order, optionally filtered by kind."""
        out = [sp for sp, _, _ in self.walk()]
        if kind is not None:
            out = [sp for sp in out if sp.kind == kind]
        return out


def host_hotspots(tracer, top: int | None = 10) -> list[dict]:
    """The simulator's own Python hot spots: *self* wall-clock per span.

    Self time is a span's wall duration minus its children's.  A
    kernel span's wall time is its kernel body, so each kernel name
    gets a row of its own and a round's self time is only the host
    work between its kernels; the load/build/verify host spans carry
    their own cost.  Rounds are folded into one ``round *`` row (they
    share a code path; hundreds of per-round rows would bury the
    signal).  Returns the ``top`` heaviest rows as dicts with
    ``name``/``kind``/``count``/``wall_seconds``, hottest first.
    """
    agg: dict[tuple[str, str], list] = {}
    for sp, _depth, _parent in tracer.walk():
        child_wall = sum(c.wall_seconds for c in sp.children)
        self_seconds = max(0.0, sp.wall_seconds - child_wall)
        name = "round *" if sp.kind == "round" else sp.name
        row = agg.setdefault((name, sp.kind), [0, 0.0])
        row[0] += 1
        row[1] += self_seconds
    rows = [
        {"name": name, "kind": kind, "count": n, "wall_seconds": secs}
        for (name, kind), (n, secs) in agg.items()
    ]
    rows.sort(key=lambda r: -r["wall_seconds"])
    return rows if top is None else rows[:top]
