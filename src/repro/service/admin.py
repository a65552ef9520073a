"""Admin/introspection HTTP endpoints for a live :class:`MSTService`.

A tiny stdlib :class:`~http.server.ThreadingHTTPServer` running on a
daemon thread — no web framework, no new dependencies — exposing the
four classic operational endpoints:

* ``/healthz``   — liveness: ``200 ok`` while the service is up.
* ``/statusz``   — JSON snapshot: build version, uptime, config, cache
  and queue occupancy, windowed latency summary, and every SLO's
  current burn state (:meth:`MSTService.status`).
* ``/metrics``   — Prometheus text exposition (version 0.0.4) of the
  service's :class:`~repro.obs.metrics.MetricsRegistry`, plus per-SLO
  ``repro_slo_*`` gauges and — with the serving policy armed —
  per-graph ``repro_breaker_*`` gauges labeled by fingerprint.
* ``/profilez``  — the last successful execution's
  :class:`~repro.obs.profile.RunProfile` as JSON, built when read
  (``404`` until a query has executed).
* ``/debugz``    — the flight recorder's black box: ring-buffer tails
  (events, outcomes, and the last queries' span trees as rows) plus
  the list of recent postmortem bundles on disk (requires the
  recorder, which ``ServiceConfig`` arms by default; ``404`` when
  disabled).

Metric names are sanitized for Prometheus (dots → underscores, a
``repro_`` namespace prefix); counters and gauges carry ``# TYPE``
lines.

The server binds ``port=0`` for an OS-assigned port (tests), serves
each request on its own thread, and never touches solver state — it
only *reads* the service's registries, so scraping cannot perturb
modeled results.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["AdminServer", "render_prometheus", "sanitize_metric_name"]


def sanitize_metric_name(name: str, *, prefix: str = "repro_") -> str:
    """Map a dotted registry name onto a legal Prometheus name.

    ``service.p50_latency`` → ``repro_service_p50_latency``.  Any
    character outside ``[a-zA-Z0-9_:]`` becomes ``_``; a leading digit
    gains a ``_`` guard.
    """
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    flat = "".join(out)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return prefix + flat


def _sample_value(value: float) -> str:
    """Render one sample value (Prometheus accepts +Inf/-Inf/NaN)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def render_prometheus(service) -> str:
    """The ``/metrics`` body: registry + SLO gauges, text format 0.0.4.

    One ``# HELP``/``# TYPE`` pair per family, samples sorted by name
    so the exposition is deterministic for a given service state.
    """
    from ..obs.metrics import Counter

    reg = service.registry
    flat = service.metrics()  # refreshes gauges from current state
    counters = {
        name
        for name, metric in reg._metrics.items()
        if isinstance(metric, Counter)
    }
    lines: list[str] = []
    for name in sorted(flat):
        value = flat[name]
        prom = sanitize_metric_name(name)
        kind = "counter" if name in counters else "gauge"
        lines.append(f"# HELP {prom} {name}")
        lines.append(f"# TYPE {prom} {kind}")
        lines.append(f"{prom} {_sample_value(float(value))}")
    for status in service.slo_statuses():
        d = status.to_dict()
        label = f'{{slo="{d["name"]}"}}'
        for field in ("sli", "burn_rate"):
            prom = sanitize_metric_name(f"slo.{field}")
            lines.append(f"# HELP {prom} SLO {field} for {d['name']}")
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom}{label} {_sample_value(float(d[field]))}")
        prom = sanitize_metric_name("slo.alerting")
        lines.append(f"# HELP {prom} 1 while the SLO burn alert is firing")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom}{label} {_sample_value(1.0 if d['alerting'] else 0.0)}")
    policy = getattr(service, "policy", None)
    if policy is not None:
        snapshots = sorted(
            policy.breaker_snapshots(), key=lambda b: b["graph"]
        )
        if snapshots:
            open_name = sanitize_metric_name("breaker.open")
            fail_name = sanitize_metric_name("breaker.failures")
            lines.append(
                f"# HELP {open_name} 1 while the graph's circuit breaker "
                "is not closed"
            )
            lines.append(f"# TYPE {open_name} gauge")
            for b in snapshots:
                label = f'{{graph="{b["graph"]}",state="{b["state"]}"}}'
                value = 0.0 if b["state"] == "closed" else 1.0
                lines.append(f"{open_name}{label} {_sample_value(value)}")
            lines.append(
                f"# HELP {fail_name} consecutive failures seen by the "
                "graph's circuit breaker"
            )
            lines.append(f"# TYPE {fail_name} gauge")
            for b in snapshots:
                label = f'{{graph="{b["graph"]}"}}'
                lines.append(
                    f"{fail_name}{label} {_sample_value(float(b['failures']))}"
                )
    return "\n".join(lines) + "\n"


def _json_safe(obj):
    """Replace non-finite floats so the body is strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-admin/1.0"

    # The service is attached to the *server* object (one handler
    # instance exists per request).
    @property
    def service(self):
        return self.server.mst_service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # silence per-request stderr spam
        pass

    def _send(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, code: int, obj) -> None:
        self._send(
            code,
            json.dumps(_json_safe(obj), indent=2, sort_keys=True) + "\n",
            "application/json",
        )

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path in ("/", "/healthz"):
                self._send(200, "ok\n", "text/plain; charset=utf-8")
            elif path == "/statusz":
                self._send_json(200, self.service.status())
            elif path == "/metrics":
                self._send(
                    200,
                    render_prometheus(self.service),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/profilez":
                profile = self.service.latest_profile
                if profile is None:
                    self._send_json(
                        404,
                        {
                            "error": "no profile recorded yet",
                            "hint": "needs one executed (non-cached) query",
                        },
                    )
                else:
                    self._send_json(200, profile)
            elif path == "/debugz":
                recorder = getattr(self.service, "recorder", None)
                if recorder is None:
                    self._send_json(
                        404,
                        {
                            "error": "flight recorder disabled",
                            "hint": "needs ServiceConfig.postmortem_dir (on "
                            "by default; --no-recorder turns it off)",
                        },
                    )
                else:
                    self._send_json(200, recorder.debug_snapshot())
            else:
                self._send_json(
                    404,
                    {
                        "error": f"unknown path {path!r}",
                        "endpoints": [
                            "/healthz",
                            "/statusz",
                            "/metrics",
                            "/profilez",
                            "/debugz",
                        ],
                    },
                )
        except BrokenPipeError:  # client went away mid-write
            pass
        except Exception as exc:  # never kill the serving thread
            try:
                self._send_json(500, {"error": str(exc)})
            except Exception:
                pass


class AdminServer:
    """The admin endpoint thread bound to one :class:`MSTService`.

    ``port=0`` asks the OS for a free port (read it back from
    :attr:`port` after :meth:`start`).  Usable as a context manager.
    """

    def __init__(self, service, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AdminServer":
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        httpd.daemon_threads = True
        httpd.mst_service = self.service  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-admin",
            daemon=True,
        )
        self._thread.start()
        if self.service.events.enabled:
            self.service.events.emit(
                "admin.started", level="info", url=self.url
            )
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "AdminServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
