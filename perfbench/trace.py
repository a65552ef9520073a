"""Outside-in per-layer tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: each hook rebinds a
program function *where its caller looks it up* (``ecl_mst`` finds
``kernel1_reserve`` in ``repro.core.eclmst``, the union engine finds
``resolve_roots`` in ``repro.core.kernels``) with a wrapper that times
the call.  Every span carries its parent (the enclosing span on the
same thread) and an op id shared by all spans of one operation or
query.  Hooks are removed when the traced run ends; the untraced run
never installs them.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

# Float tolerance for the self + children = parent reconciliation.
_ABS_TOL_S = 1e-6
_REL_TOL = 1e-9


@dataclass(frozen=True)
class Hook:
    """One wrapped call site: span ``span`` around ``module.attr``."""

    span: str
    module: str
    attr: str
    op_of: Callable | None = None  # op id from the call's arguments
    keep_result: bool = False  # hand return values to the recorder

    def owner(self):
        obj = importlib.import_module(self.module)
        *path, _ = self.attr.split(".")
        for name in path:
            obj = getattr(obj, name)
        return obj


def _query_id(args, kwargs):
    return args[0].id


def _first_arg(args, kwargs):
    return args[0]


# Module-level call sites, named by layer (see README.md for the map).
MODULE_HOOKS: tuple[Hook, ...] = (
    Hook("generators.build", "repro.generators.suite", "build"),
    Hook("graph.from_edge_arrays", "repro.generators.roads", "from_edge_arrays"),
    Hook("core.ecl_mst", "repro.core.eclmst", "ecl_mst", keep_result=True),
    Hook("core.plan_filtering", "repro.core.eclmst", "plan_filtering"),
    Hook("core.state_create", "repro.core.kernels", "MstState.create"),
    Hook("kernels.init_populate", "repro.core.eclmst", "kernel_init_populate"),
    Hook("kernels.k1_reserve", "repro.core.eclmst", "kernel1_reserve"),
    Hook("kernels.k2_union", "repro.core.eclmst", "kernel2_union"),
    Hook("kernels.k3_reset", "repro.core.eclmst", "kernel3_reset"),
    Hook("dsu.resolve_roots", "repro.core.kernels", "resolve_roots"),
    Hook("verify.verify_mst", "repro.core.verify", "verify_mst"),
    Hook("verify.reference_mst_mask", "repro.core.verify", "reference_mst_mask"),
    Hook("service.execute", "repro.service.engine", "execute_query", op_of=_query_id),
    Hook("service.fingerprint", "repro.obs.profile", "graph_fingerprint"),
    Hook("obs.collect_result_metrics", "repro.obs.metrics", "collect_result_metrics"),
)

# Methods of one live service, looked up on the instance by its callers.
SERVICE_HOOKS: tuple[tuple[str, str, Callable], ...] = (
    ("service.submit", "submit", _query_id),
    ("service.worker", "_thread_job", _query_id),
)
RECORDER_HOOKS: tuple[tuple[str, str, Callable], ...] = (
    ("obs.recorder", "record_spans", _first_arg),
    ("obs.recorder", "observe_outcome", _query_id),
)


@dataclass
class Span:
    id: int
    name: str
    op: object
    parent: int  # -1 for a root span
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """Thread-safe in-memory span store with a per-thread span stack."""

    spans: list[Span] = field(default_factory=list)
    results: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _ids: itertools.count = field(default_factory=itertools.count)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        sp = Span(
            next(self._ids), name, op, parent.id if parent else -1,
            time.perf_counter(),
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)  # list.append is atomic under the GIL

    def wrap(self, name: str, fn, op_of=None, keep_result=False):
        def traced(*args, **kwargs):
            op = op_of(args, kwargs) if op_of is not None else None
            with self.span(name, op):
                out = fn(*args, **kwargs)
            if keep_result:
                self.results.append(out)
            return out

        return traced


@contextmanager
def instrument(rec: SpanRecorder, service=None):
    """Install every hook (plus the service's, if given); undo on exit."""
    undo: list[Callable[[], None]] = []
    try:
        for hook in MODULE_HOOKS:
            owner = hook.owner()
            name = hook.attr.rsplit(".", 1)[-1]
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                fn = rec.wrap(hook.span, raw.__func__, hook.op_of, hook.keep_result)
                setattr(owner, name, classmethod(fn))
            else:
                setattr(owner, name, rec.wrap(hook.span, raw, hook.op_of, hook.keep_result))
            undo.append(lambda o=owner, n=name, r=raw: setattr(o, n, r))
        if service is not None:
            targets = [(service, SERVICE_HOOKS)]
            if service.recorder is not None:
                targets.append((service.recorder, RECORDER_HOOKS))
            for obj, hooks in targets:
                for span, attr, op_of in hooks:
                    setattr(obj, attr, rec.wrap(span, getattr(obj, attr), op_of))
                    undo.append(lambda o=obj, a=attr: delattr(o, a))
        yield rec
    finally:
        for fn in reversed(undo):
            fn()


@dataclass
class SpanTable:
    """Per-name totals over one traced run, checked for consistency."""

    total: dict[str, float]  # seconds
    self_time: dict[str, float]
    calls: dict[str, int]
    starts: dict[tuple[str, object], float]  # (name, op) -> first start
    ends: dict[tuple[str, object], float]  # (name, op) -> last end


class TraceError(RuntimeError):
    """The span tree does not reconcile, or a declared span never fired."""


def analyze(spans: list[Span]) -> SpanTable:
    """Aggregate spans by name and check that self + children = parent.

    Each span's self time is its duration minus its children's.  The
    check fails when a child leaves its parent's interval, two siblings
    overlap, a child belongs to another op than its parent, or a name's
    total differs from its self time plus its children's totals.
    """
    by_id = {s.id: s for s in spans}
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            if s.parent not in by_id:
                raise TraceError(f"span {s.name} lost its parent")
            kids.setdefault(s.parent, []).append(s)
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    # (parent name, child name) -> summed child seconds
    child_total: dict[tuple[str, str], float] = {}
    starts: dict[tuple[str, object], float] = {}
    ends: dict[tuple[str, object], float] = {}
    for s in spans:
        covered = 0.0
        prev_end = s.start
        for c in sorted(kids.get(s.id, ()), key=lambda c: c.start):
            if c.start < prev_end - _ABS_TOL_S or c.end > s.end + _ABS_TOL_S:
                raise TraceError(f"{c.name} overlaps a sibling or leaves {s.name}")
            if c.op != s.op:
                raise TraceError(f"{c.name} has op {c.op!r}, parent {s.name} {s.op!r}")
            prev_end = c.end
            covered += c.seconds
            key = (s.name, c.name)
            child_total[key] = child_total.get(key, 0.0) + c.seconds
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        self_time[s.name] = self_time.get(s.name, 0.0) + (s.seconds - covered)
        calls[s.name] = calls.get(s.name, 0) + 1
        k = (s.name, s.op)
        starts[k] = min(starts.get(k, s.start), s.start)
        ends[k] = max(ends.get(k, s.end), s.end)
    for name, tot in total.items():
        parts = self_time[name] + sum(
            v for (p, _), v in child_total.items() if p == name
        )
        if abs(parts - tot) > _ABS_TOL_S + _REL_TOL * abs(tot):
            raise TraceError(f"{name}: self + children {parts} != total {tot}")
    return SpanTable(total, self_time, calls, starts, ends)
