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

**Roots may change threads.**  A span opened while none is open is a
*root*, held off the span stack: the spans opened under it (on any
thread, one at a time) are its children, and closing it, from any
thread and even while a child is open, only stamps its end.  The
service's ticket opens a query's root on submit, a worker runs the
children, and the waiter closes it at the outcome or at the timeout.
A span opened after its root closed starts a root of its own.

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
            return _Scope(None, Span(name, kind, attrs), log, on_open, on_close, level)
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
        self._root: Span | None = None  # the open root, off the stack
        self._stack: list[Span] = []
        self._next_id = 0
        self.modeled_now = 0.0
        self._wall_mark = time.perf_counter()

    def _add(self, sp: Span) -> Span | None:  # the parent; None: a root
        self._next_id += 1
        sp.id = self._next_id
        parent = self._stack[-1] if self._stack else self._root
        if parent is not None:
            parent.children.append(sp)
        else:
            self.roots.append(sp)
        return parent

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The innermost open span, if any (the open root when no
        child is open)."""
        return self._stack[-1] if self._stack else self._root

    def span(
        self, name: str, kind: str = "span", /, *, log=NULL_EVENTS,
        on_open: str | None = None, on_close: str | None = None, level: str = "info", **attrs,
    ) -> "_Scope":
        """Open a nested span for the duration of the ``with`` block.

        ``name`` and ``kind`` are positional-only, so ``attrs`` may
        hold any key (a detection's fault ``kind``, say).  ``log``
        receives the ``on_open`` event before the span starts and the
        ``on_close`` event after it ends without an exception, each
        carrying the span's attrs at that moment plus ``span=<id>``.
        A root is held off the stack (module docstring).
        """
        now = self.modeled_now
        sp = Span(name, kind, attrs, modeled_start=now, modeled_end=now)
        return _Scope(self, sp, log, on_open, on_close, level)

    def mark(self, name: str, kind: str = "span", /, **kw) -> Span:
        """A zero-length span: writes its boundary events at once."""
        with self.span(name, kind, **kw) as sp:
            return sp

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open span (if any)."""
        sp = self.current
        if sp is not None:
            sp.attrs.update(attrs)

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


class _Scope:
    """A span's context manager (a class, not a generator: a served
    query opens a dozen spans and its solver run dozens more).  With no
    tracer (the null tracer's span while its log listens) it keeps no
    clock and no tree, and writes the boundary events with ``span=0``."""

    __slots__ = ("tracer", "span", "log", "on_open", "on_close", "level", "root")

    def __init__(self, tracer, sp: Span, log, on_open, on_close, level) -> None:
        self.tracer, self.span, self.log = tracer, sp, log
        self.on_open, self.on_close, self.level = on_open, on_close, level

    def __enter__(self) -> Span:
        tr, sp = self.tracer, self.span
        self.root = tr is not None and tr._add(sp) is None
        if self.on_open:
            self.log.emit(self.on_open, self.level, **sp.attrs, span=sp.id)
        if tr is not None:
            sp.wall_start = tr._wall_mark = time.perf_counter()
            if self.root:
                tr._root = sp
            else:
                tr._stack.append(sp)
        return sp

    def __exit__(self, exc_type, exc, tb) -> bool:
        tr, sp = self.tracer, self.span
        if tr is not None:
            if not self.root:
                tr._stack.pop()
            elif tr._root is sp:
                tr._root = None
            sp.wall_end = tr._wall_mark = time.perf_counter()
            sp.modeled_end = tr.modeled_now
        if self.on_close and exc_type is None:
            self.log.emit(self.on_close, self.level, **sp.attrs, span=sp.id)
        return False


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
