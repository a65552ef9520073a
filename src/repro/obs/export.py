"""Trace exporters: NDJSON span logs and Chrome-trace JSON.

The Chrome-trace output loads directly in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_.  Timestamps are *modeled
microseconds* on the tracer's modeled clock, which every span carries,
so the picture matches the cost model, not Python's speed, and each
child lies inside its parent.
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
    events: list[dict] = []
    for sp, depth, _parent in tracer.walk():
        events.append(
            {
                "name": sp.name,
                "cat": sp.kind,
                "ph": "X",
                "ts": sp.modeled_start * 1e6,
                "dur": sp.modeled_seconds * 1e6,
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
    (whose ``id`` is the one events cite as ``span``) plus
    ``parent_id`` and ``depth``, so the tree is reconstructible from
    the flat log.
    """
    lines: list[str] = []
    for sp, depth, parent in tracer.walk():
        rec = sp.to_dict()
        rec["parent_id"] = parent.id if parent is not None else None
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
