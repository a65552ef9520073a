"""Lightweight span tracer for runs on the simulated substrate.

A trace is a tree of :class:`Span` objects following the hierarchy

    run > phase > round > kernel

Spans carry a name, a kind, free-form attributes, *wall* time (host
``perf_counter``) and — when a modeled clock is bound — *modeled* time
on the simulated device, so exported traces line up with the cost
model rather than with Python's execution speed.

Tracing is strictly opt-in and zero-overhead by default: every traced
code path holds a :data:`NULL_TRACER` whose methods are no-ops, and
the hot :meth:`~repro.gpusim.costmodel.Device.launch` path guards on
``tracer.enabled`` so a disabled run performs no extra work at all.
Enabling a tracer never changes algorithm behaviour — it only records
what already happened.

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
from typing import Callable, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "host_hotspots"]


@dataclass
class Span:
    """One timed region of a run.

    ``modeled_start``/``modeled_end`` are seconds on the simulated
    device clock (``None`` when no modeled clock was bound); wall times
    are host ``perf_counter`` seconds.
    """

    name: str
    kind: str = "span"
    attrs: dict = field(default_factory=dict)
    wall_start: float = 0.0
    wall_end: float | None = None
    modeled_start: float | None = None
    modeled_end: float | None = None
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
    def modeled_seconds(self) -> float | None:
        if self.modeled_start is None or self.modeled_end is None:
            return None
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
    ``tracer.enabled`` to skip building arguments.
    """

    enabled = False

    def span(self, name: str, kind: str = "span", **attrs):
        return _NULL_SPAN

    def annotate(self, **attrs) -> None:
        pass

    def kernel(self, counters, modeled_start: float | None = None) -> None:
        pass

    def set_modeled_clock(self, clock) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Collects a forest of nested spans from one or more runs.

    Parameters
    ----------
    modeled_clock:
        Optional zero-argument callable returning the current modeled
        time in seconds.  Devices bind their own accumulated-time
        clock automatically when the tracer is attached, so callers
        rarely need to pass one.
    """

    enabled = True

    def __init__(self, modeled_clock: Callable[[], float] | None = None) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._clock = modeled_clock
        self._next_id = 0

    def _assign_id(self, sp: Span) -> None:
        self._next_id += 1
        sp.id = self._next_id

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------
    def set_modeled_clock(self, clock: Callable[[], float] | None) -> None:
        """Bind the simulated-device clock used for modeled timestamps."""
        self._clock = clock

    def _modeled_now(self) -> float | None:
        return self._clock() if self._clock is not None else None

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, kind: str = "span", **attrs):
        """Open a nested span for the duration of the ``with`` block."""
        sp = Span(
            name=name,
            kind=kind,
            attrs=dict(attrs),
            wall_start=time.perf_counter(),
            modeled_start=self._modeled_now(),
        )
        self._assign_id(sp)
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.wall_end = time.perf_counter()
            sp.modeled_end = self._modeled_now()

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open span (if any)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def kernel(self, counters, modeled_start: float | None = None) -> Span:
        """Record one simulated kernel launch as a leaf span.

        ``counters`` is the launch's
        :class:`~repro.gpusim.counters.KernelCounters`; the span's
        modeled interval is ``[modeled_start, modeled_start +
        counters.modeled_seconds]`` on the device clock.
        """
        now = time.perf_counter()
        sp = Span(
            name=counters.name,
            kind="kernel",
            wall_start=now,
            wall_end=now,
            modeled_start=modeled_start,
            modeled_end=(
                None
                if modeled_start is None
                else modeled_start + counters.modeled_seconds
            ),
            attrs={
                "items": counters.items,
                "cycles": counters.cycles,
                "bytes": counters.bytes,
                "atomics": counters.atomics,
                "atomics_skipped": counters.atomics_skipped,
                "find_jumps": counters.find_jumps,
                "modeled_seconds": counters.modeled_seconds,
            },
        )
        self._assign_id(sp)
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)
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

    Self time is a span's wall duration minus its children's — kernel
    spans are instantaneous on the host, so the NumPy work of a round
    lands on the round span itself, and the load/build/verify host
    spans carry their own cost.  Rounds are folded into one ``round *``
    row (they share a code path; hundreds of per-round rows would bury
    the signal).  Returns the ``top`` heaviest rows as dicts with
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
