"""Admin endpoints: /healthz, /statusz, /metrics, /profilez, /debugz.

Runs a real :class:`AdminServer` on an OS-assigned port against a live
service and validates each body — including that ``/metrics`` is
well-formed Prometheus text exposition (parsed by a small in-test
parser, not just grepped).
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import metric_direction
from repro.service import MSTService, Query, ServiceConfig
from repro.service.admin import (
    AdminServer,
    render_prometheus,
    sanitize_metric_name,
)
from repro.service.engine import WINDOW_S

SCALE = 0.06


def q(input="internet", **kw):
    kw.setdefault("scale", SCALE)
    return Query(input=input, **kw)


def service(**kw):
    kw.setdefault("workers", 2)
    return MSTService(ServiceConfig(**kw))


def get(url: str):
    """GET returning (status, headers, body) without raising on 4xx."""
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, dict(resp.headers), resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read().decode()


# ----------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\S+)"
)


def parse_prometheus(text: str):
    """Strict-enough parser: returns ({family: type}, {sample: value}).

    Raises AssertionError on any malformed line, unknown escape, or
    sample whose family never got a ``# TYPE`` line.
    """
    families: dict[str, str] = {}
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            assert len(line.split(" ", 3)) == 4, f"bad HELP: {line!r}"
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram", "summary", "untyped")
            families[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        m = _SAMPLE_RE.fullmatch(line)
        assert m, f"malformed sample line: {line!r}"
        raw = m.group("value")
        value = float(
            {"+Inf": "inf", "-Inf": "-inf", "NaN": "nan"}.get(raw, raw)
        )
        samples[m.group("name") + (m.group("labels") or "")] = value
        assert m.group("name") in families, f"sample without TYPE: {line!r}"
    return families, samples


class TestSanitize:
    def test_dots_become_underscores(self):
        assert (
            sanitize_metric_name("service.p50_latency")
            == "repro_service_p50_latency"
        )

    def test_illegal_chars_flattened(self):
        assert sanitize_metric_name("a-b c/d") == "repro_a_b_c_d"

    def test_leading_digit_guarded(self):
        assert sanitize_metric_name("2d.grid", prefix="") == "_2d_grid"

    def test_colon_survives(self):
        assert sanitize_metric_name("ns:total", prefix="") == "ns:total"


class TestRenderPrometheus:
    def test_exposition_is_parseable_and_typed(self):
        with service() as svc:
            svc.run_batch([q(id="a")])
            text = render_prometheus(svc)
        families, samples = parse_prometheus(text)
        assert text.endswith("\n")
        # Counters and gauges carry the right TYPE.
        assert families["repro_service_queries"] == "counter"
        assert families["repro_service_executed"] == "counter"
        assert families["repro_service_qps"] == "gauge"
        assert families["repro_service_p50_latency"] == "gauge"
        assert samples["repro_service_queries"] == 1.0

    def test_slo_gauges_carry_labels(self):
        with service() as svc:
            svc.run_batch([q(id="a")])
            text = render_prometheus(svc)
        _, samples = parse_prometheus(text)
        assert 'repro_slo_sli{slo="availability"}' in samples
        assert 'repro_slo_burn_rate{slo="latency-1s"}' in samples
        assert samples['repro_slo_alerting{slo="escaped-faults"}'] == 0.0

    def test_inf_renders_as_prometheus_inf(self):
        # A zero-kind SLO with an escape burns at +Inf; the exposition
        # must still parse.
        with service() as svc:
            svc.slo.record(ok=True, latency_s=0.1, escaped=1)
            text = render_prometheus(svc)
        _, samples = parse_prometheus(text)
        key = 'repro_slo_burn_rate{slo="escaped-faults"}'
        assert samples[key] == float("inf")
        assert 'burn_rate{slo="escaped-faults"} +Inf' in text


# ----------------------------------------------------------------------
# The windowed-metrics satellite: p50/p95/qps come from recent traffic
# ----------------------------------------------------------------------
class TestWindowedServiceMetrics:
    def test_latency_gauges_read_the_sliding_window(self):
        with service() as svc:
            for v in (0.010, 0.020, 0.030, 0.040):
                svc._lat_window.observe(v)
                svc._done_window.inc()
            flat = svc.metrics()
        assert flat["service.p50_latency"] == svc._lat_window.quantile(0.5)
        assert flat["service.p95_latency"] == svc._lat_window.quantile(0.95)
        assert flat["service.qps"] == pytest.approx(4.0 / WINDOW_S)

    def test_idle_service_reports_zero_not_nan(self):
        with service() as svc:
            flat = svc.metrics()
        assert flat["service.p50_latency"] == 0.0
        assert flat["service.p95_latency"] == 0.0
        assert flat["service.qps"] == 0.0

    def test_lifetime_histogram_excluded_from_flat_metrics(self):
        with service() as svc:
            svc.run_batch([q(id="a")])
            flat = svc.metrics()
        assert not any(k.startswith("service.latency.") for k in flat)

    def test_latency_metrics_classified_as_info(self):
        for name in (
            "service.p50_latency",
            "service.p95_latency",
            "service.qps",
            "service.latency.count",
            "service.latency.p50",
        ):
            assert metric_direction(name) == "info", name
        # The gate still treats real costs as gating.
        assert metric_direction("run.modeled_total_s") == "lower"


# ----------------------------------------------------------------------
# The HTTP server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live():
    """One service + admin server shared by the endpoint tests."""
    with MSTService(ServiceConfig(workers=2, keep_profile=True)) as svc:
        svc.run_batch([q(id="seed")])
        with AdminServer(svc) as admin:
            yield svc, admin


class TestEndpoints:
    def test_os_assigned_port(self, live):
        _, admin = live
        assert admin.port > 0
        assert admin.url.endswith(str(admin.port))

    def test_healthz(self, live):
        _, admin = live
        status, _, body = get(admin.url + "/healthz")
        assert status == 200 and body == "ok\n"
        assert get(admin.url + "/")[0] == 200

    def test_statusz_snapshot(self, live):
        _, admin = live
        status, headers, body = get(admin.url + "/statusz")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        doc = json.loads(body)
        assert set(doc) >= {
            "version",
            "uptime_s",
            "config",
            "queue_depth",
            "caches",
            "window",
            "slos",
        }
        assert doc["caches"]["results"] >= 1
        assert doc["window"]["completed"] >= 1
        assert {s["name"] for s in doc["slos"]} == {
            "availability",
            "latency-1s",
            "escaped-faults",
            "shed-rate",
        }
        assert doc["policy"] == {"enabled": False}

    def test_metrics_endpoint(self, live):
        _, admin = live
        status, headers, body = get(admin.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        families, samples = parse_prometheus(body)
        assert samples["repro_service_queries"] >= 1.0
        assert families["repro_service_cache_hit_ratio"] == "gauge"

    def test_profilez_after_execution(self, live):
        _, admin = live
        status, _, body = get(admin.url + "/profilez")
        assert status == 200
        doc = json.loads(body)
        assert doc["algorithm"] == "ecl-mst"
        assert "kernels" in doc and "round_log" in doc

    def test_unknown_path_404_lists_endpoints(self, live):
        _, admin = live
        status, _, body = get(admin.url + "/nope")
        assert status == 404
        endpoints = json.loads(body)["endpoints"]
        assert "/metrics" in endpoints
        assert "/debugz" in endpoints

    def test_debugz_ring_tails(self, live):
        _, admin = live
        status, headers, body = get(admin.url + "/debugz")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        doc = json.loads(body)
        assert doc["enabled"] is True
        assert set(doc["rings"]) == {
            "events",
            "outcomes",
            "spans",
            "snapshots",
        }
        # The seed query left tracks in every observation ring.
        assert doc["rings"]["outcomes"]["len"] >= 1
        assert any(o["id"] == "seed" for o in doc["outcomes"])
        assert any(s["query"] == "seed" for s in doc["spans"])
        assert isinstance(doc["bundles"], list)


class TestProfilezGating:
    def test_404_until_profile_kept(self):
        with service() as svc:  # keep_profile defaults off
            svc.run_batch([q(id="a")])
            with AdminServer(svc) as admin:
                status, _, body = get(admin.url + "/profilez")
        assert status == 404
        assert "keep_profile" in json.loads(body)["hint"]


class TestDebugzGating:
    def test_404_when_recorder_disabled(self):
        with service(recorder=None) as svc:
            with AdminServer(svc) as admin:
                status, _, body = get(admin.url + "/debugz")
        assert status == 404
        assert "recorder" in json.loads(body)["hint"]


# ----------------------------------------------------------------------
# Concurrency: admin reads racing live queries must never tear
# ----------------------------------------------------------------------
class TestConcurrentReads:
    def test_profilez_and_debugz_under_concurrent_queries(self, tmp_path):
        import threading

        from repro.obs.recorder import RecorderConfig

        cfg = ServiceConfig(
            workers=4,
            keep_profile=True,
            recorder=RecorderConfig(
                dir=str(tmp_path / "pm"), snapshot_interval_s=0.0
            ),
        )
        failures: list[str] = []
        stop = threading.Event()

        def scrape(path: str):
            while not stop.is_set():
                status, _, body = get(admin.url + path)
                if status != 200:
                    failures.append(f"{path}: HTTP {status}")
                    return
                try:
                    # Torn reads would break parsing.
                    if path == "/metrics":
                        parse_prometheus(body)
                    else:
                        json.loads(body)
                except (AssertionError, json.JSONDecodeError) as exc:
                    failures.append(f"{path}: {exc}")
                    return

        with MSTService(cfg) as svc:
            svc.run_batch([q(id="warm")])  # /profilez has a body
            with AdminServer(svc) as admin:
                threads = [
                    threading.Thread(target=scrape, args=(p,), daemon=True)
                    for p in ("/profilez", "/debugz", "/statusz", "/metrics")
                ]
                for t in threads:
                    t.start()
                # Mixed traffic, including failures that trigger bundle
                # captures, racing the scrapers the whole time.
                batch = []
                for i in range(6):
                    batch.append(q(id=f"ok-{i}", input="2d-2e20.sym"))
                    batch.append(
                        q(
                            id=f"bad-{i}",
                            n_faults=1,
                            check_cadence=0,
                            fault_kinds=("kernel-fail",),
                            fault_seed=i,
                        )
                    )
                svc.run_batch(batch)
                stop.set()
                for t in threads:
                    t.join(timeout=10.0)
        assert not failures, failures
