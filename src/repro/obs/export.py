"""Trace exporters: NDJSON span logs and Chrome-trace JSON.

The Chrome-trace output loads directly in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_.  Timestamps are *modeled
microseconds* on the simulated device clock whenever the trace carries
them (so the picture matches the cost model, not Python's speed), with
a wall-clock fallback for spans recorded without a modeled clock.
"""

from __future__ import annotations

import json
from typing import Iterable

from .trace import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace_json",
    "to_ndjson",
    "write_chrome_trace",
    "write_ndjson",
]

# Depth → chrome-trace thread ID.  One lane per nesting level keeps
# nested modeled intervals (which overlap by construction: a round
# contains its kernels) from being mis-stacked by the viewer.
_KIND_ORDER = ("run", "cell", "phase", "round", "kernel")


def _tid_for(span: Span, depth: int) -> int:
    if span.kind in _KIND_ORDER:
        return _KIND_ORDER.index(span.kind)
    return min(depth, len(_KIND_ORDER) - 1)


def _span_interval(span: Span, wall_origin: float) -> tuple[float, float]:
    """(ts, dur) in microseconds, preferring the modeled clock."""
    if span.modeled_start is not None and span.modeled_end is not None:
        return span.modeled_start * 1e6, (span.modeled_end - span.modeled_start) * 1e6
    dur = span.wall_seconds
    return (span.wall_start - wall_origin) * 1e6, dur * 1e6


def _json_safe(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """Flatten a tracer's span forest into chrome-trace event dicts.

    Every event is a complete ("ph": "X") event with ``name``, ``ts``
    and ``dur`` in microseconds, ``cat`` set to the span kind, and the
    span attributes under ``args``.
    """
    spans = list(tracer.walk())
    wall_origin = min(
        (sp.wall_start for sp, _, _ in spans), default=0.0
    )
    events: list[dict] = []
    for sp, depth, _parent in spans:
        ts, dur = _span_interval(sp, wall_origin)
        events.append(
            {
                "name": sp.name,
                "cat": sp.kind,
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": 0,
                "tid": _tid_for(sp, depth),
                "args": _json_safe(sp.attrs),
            }
        )
    return events


def to_chrome_trace_json(tracer: Tracer, *, indent: int | None = None) -> str:
    """Serialize as the chrome-trace *JSON array* flavour."""
    return json.dumps(chrome_trace_events(tracer), indent=indent)


def to_ndjson(tracer: Tracer) -> str:
    """One JSON object per span per line, depth-first, with lineage.

    Each record is the span's :meth:`~repro.obs.trace.Span.to_dict`
    plus ``id``/``parent_id`` (depth-first indices) and ``depth``, so
    the tree is reconstructible from the flat log.
    """
    ids: dict[int, int] = {}
    lines: list[str] = []
    for i, (sp, depth, parent) in enumerate(tracer.walk()):
        ids[id(sp)] = i
        rec = sp.to_dict()
        rec["id"] = i
        rec["parent_id"] = ids[id(parent)] if parent is not None else None
        rec["depth"] = depth
        rec["attrs"] = _json_safe(rec["attrs"])
        lines.append(json.dumps(rec))
    return "\n".join(lines) + ("\n" if lines else "")


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w") as f:
        f.write(to_chrome_trace_json(tracer))


def write_ndjson(tracer: Tracer, path: str) -> None:
    with open(path, "w") as f:
        f.write(to_ndjson(tracer))
