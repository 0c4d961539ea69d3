"""End-to-end telemetry through the serving tier.

Covers the ``/metrics`` exposition, trace-id propagation (response
header, assign payloads, error bodies, and spans), the per-endpoint
instruments, the ``obs watch`` snapshot, and the full drift-alert
lifecycle against a live in-process server: shifted traffic fires the
``model_drift`` alert (visible in the watch output and the JSONL alert
log) and normalizing traffic resolves it.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    parse_prometheus_text,
    use_registry,
)
from repro.obs.trace import use_collector
from repro.obs.watch import render_snapshot, take_snapshot, watch
from repro.serve.client import ServeClient, ServeError
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeConfig, build_server

REPO_ROOT = Path(__file__).resolve().parents[2]
TRACE_ID = re.compile(r"^[0-9a-f]{16}$")


def _build(tmp_dir, fitted_a, ookla_a, catalog_a, **config_kwargs):
    """A live server + client over a one-model registry."""
    registry = ModelRegistry(tmp_dir / "registry")
    registry.register(
        registry.key_for("A", catalog_a),
        fitted_a,
        downloads=np.asarray(ookla_a["download_mbps"], dtype=float),
        uploads=np.asarray(ookla_a["upload_mbps"], dtype=float),
    )
    config = ServeConfig(
        port=0,
        default_city="A",
        drift_min_samples=50,
        alert_interval_s=0.0,  # tests drive evaluate() themselves
        **config_kwargs,
    )
    server = build_server(registry, config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return ServeClient(f"http://{host}:{port}"), server, thread


@pytest.fixture(scope="module")
def served_telemetry(tmp_path_factory, fitted_a, request):
    ookla_a = request.getfixturevalue("ookla_a")
    catalog_a = request.getfixturevalue("catalog_a")
    client, server, thread = _build(
        tmp_path_factory.mktemp("telemetry"), fitted_a, ookla_a, catalog_a
    )
    yield client, server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestOneRegistry:
    def test_installed_registry_is_written_once_and_rendered(
        self, tmp_path, fitted_a, ookla_a, catalog_a
    ):
        """A server built under an installed registry writes each request
        into it exactly once, and /metrics renders the row counters."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(
            registry.key_for("A", catalog_a),
            fitted_a,
            downloads=np.asarray(ookla_a["download_mbps"], dtype=float),
            uploads=np.asarray(ookla_a["upload_mbps"], dtype=float),
        )
        n_requests, rows = 4, 3
        with use_registry(MetricsRegistry()) as reg:
            server = build_server(
                registry, ServeConfig(port=0, default_city="A")
            )
            thread = threading.Thread(target=server.serve_forever)
            thread.start()
            host, port = server.server_address[:2]
            client = ServeClient(f"http://{host}:{port}")
            try:
                assert server.service.metrics is reg
                for _ in range(n_requests):
                    client.assign([110.0] * rows, [5.5] * rows)
                assert reg.counter("serve.requests").value == n_requests
                families = parse_prometheus_text(client.metrics_text())
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)
        assert families["serve_assigned_total"][0][1] == n_requests * rows
        # One model served: one disk load, kept by the service.
        assert families["serve_registry_loads_total"][0][1] == 1


class TestMetricsEndpoint:
    def test_exposition_parses_with_windowed_families(
        self, served_telemetry
    ):
        client, server = served_telemetry
        client.assign([110.0, 900.0], [5.5, 40.0])
        server.service.alerts.evaluate()
        series = parse_prometheus_text(client.metrics_text())
        assert series["serve_requests_total"][0][1] > 0.0
        labels, rate = series["serve_requests_rate"][0]
        assert labels == {"window": "60s"}
        assert rate > 0.0
        quantiles = {
            lbl["quantile"]: val
            for lbl, val in series["serve_request_latency_s_window"]
            if "quantile" in lbl
        }
        assert set(quantiles) == {"0.5", "0.95", "0.99"}
        assert all(not math.isnan(v) for v in quantiles.values())
        # Alert activity is itself a metric.
        assert series["serve_alerts_active"][0][1] == 0.0

    def test_answered_request_is_on_the_next_scrape(
        self, tmp_path, fitted_a, ookla_a, catalog_a
    ):
        """A request's latency and status are recorded before its
        answer reaches the client: with the handler held right after
        the send, a scrape already counts it."""
        client, server, thread = _build(
            tmp_path, fitted_a, ookla_a, catalog_a
        )
        gate = threading.Event()

        class Held(server.RequestHandlerClass):
            def _send_body(self, *args, **kwargs):
                super()._send_body(*args, **kwargs)
                if self._path == "/assign":
                    gate.wait(timeout=60)

        server.RequestHandlerClass = Held
        try:
            client.assign([110.0, 900.0], [5.5, 40.0])
            series = parse_prometheus_text(client.metrics_text())
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert series["serve_status_2xx_total"] == [({}, 1.0)]
        assert "serve_request_latency_s_window" in series
        assert "serve_latency_assign_window" in series

    def test_metrics_content_type_and_trace_header(
        self, served_telemetry
    ):
        client, _ = served_telemetry
        with urllib.request.urlopen(
            client.base_url + "/metrics", timeout=10
        ) as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            assert TRACE_ID.match(response.headers["X-Trace-Id"])

    def test_per_endpoint_and_status_class_instruments(
        self, served_telemetry
    ):
        client, _ = served_telemetry
        client.assign([110.0], [5.5])
        with pytest.raises(ServeError):
            client._request("GET", "/nope")
        series = parse_prometheus_text(client.metrics_text())
        assert series["serve_status_2xx_total"][0][1] > 0.0
        assert series["serve_status_4xx_total"][0][1] > 0.0
        assert series["serve_errors_4xx_total"][0][1] > 0.0
        assert series["serve_latency_assign_count"][0][1] > 0.0
        # Unknown paths collapse into the low-cardinality "other" slug.
        assert series["serve_latency_other_count"][0][1] > 0.0
        assert "serve_errors_5xx_total" not in series


class TestTracePropagation:
    def test_assign_response_echoes_header_trace_id(
        self, served_telemetry
    ):
        client, _ = served_telemetry
        body = json.dumps(
            {"downloads": [110.0], "uploads": [5.5]}
        ).encode()
        request = urllib.request.Request(
            client.base_url + "/assign",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            header_id = response.headers["X-Trace-Id"]
            payload = json.loads(response.read())
        assert TRACE_ID.match(header_id)
        assert payload["trace_id"] == header_id

    def test_error_body_carries_code_message_trace_id(
        self, served_telemetry
    ):
        client, _ = served_telemetry
        with pytest.raises(ServeError) as err:
            client.assign([], [])
        assert err.value.status == 400
        assert err.value.code == 400
        assert err.value.message
        assert TRACE_ID.match(err.value.trace_id)
        assert f"[trace {err.value.trace_id}]" in str(err.value)

    def test_trace_id_reaches_request_and_assign_spans(
        self, served_telemetry
    ):
        client, _ = served_telemetry
        with use_collector() as collector:
            out = client.assign([110.0, 900.0], [5.5, 40.0])
            trace_id = out["trace_id"]
            # The handler thread records serve.request after the
            # response body is already on the wire; wait for it.
            deadline = time.monotonic() + 10.0
            request_spans: list = []
            while not request_spans and time.monotonic() < deadline:
                request_spans = [
                    sp
                    for sp in collector.find("serve.request")
                    if sp.attributes.get("trace_id") == trace_id
                ]
                if not request_spans:
                    time.sleep(0.01)
        assert len(request_spans) == 1
        assert request_spans[0].attributes["status"] == 200
        assert request_spans[0].attributes["path"] == "/assign"
        assign_spans = [
            sp
            for sp in collector.find("serve.assign")
            if sp.attributes.get("trace_id") == trace_id
        ]
        assert len(assign_spans) == 1

    def test_sampling_off_skips_spans_but_keeps_trace_ids(
        self, tmp_path, fitted_a, ookla_a, catalog_a
    ):
        client, server, thread = _build(
            tmp_path, fitted_a, ookla_a, catalog_a, trace_sample_rate=0.0
        )
        try:
            with use_collector() as collector:
                out = client.assign([110.0], [5.5])
            assert TRACE_ID.match(out["trace_id"])
            assert collector.find("serve.request") == []
            series = parse_prometheus_text(client.metrics_text())
            assert "serve_traces_sampled_total" not in series
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestClientTimeouts:
    def test_per_request_timeout_override_works(self, served_telemetry):
        client, _ = served_telemetry
        assert client.healthz(timeout_s=30.0)["status"] == "ok"
        assert client.models(timeout_s=30.0)

    def test_unreachable_server_raises_status_zero(self):
        client = ServeClient("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(ServeError) as err:
            client.healthz()
        assert err.value.status == 0
        assert err.value.trace_id is None


class TestWatch:
    def test_snapshot_and_render(self, served_telemetry):
        client, _ = served_telemetry
        client.assign([110.0], [5.5])
        snap = take_snapshot(client)
        assert snap["requests_total"] > 0.0
        assert snap["models_loaded"] >= 1
        text = render_snapshot(snap)
        assert "serve watch" in text
        assert "requests" in text
        assert "latency" in text

    def test_watch_loop_with_injected_sleep(self, served_telemetry):
        client, _ = served_telemetry
        outputs: list[str] = []
        slept: list[float] = []
        n = watch(
            client,
            interval_s=0.25,
            max_polls=3,
            clear=True,
            out=outputs.append,
            sleep=slept.append,
        )
        assert n == 3
        assert slept == [0.25, 0.25]
        assert not outputs[0].startswith("\x1b")  # first frame: no clear
        assert outputs[1].startswith("\x1b[2J")
        assert all("requests" in frame for frame in outputs)

    def test_cli_obs_watch_single_poll(self, served_telemetry, tmp_path):
        client, _ = served_telemetry
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_LEDGER="0",
        )
        out = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "obs", "watch",
                "--url", client.base_url,
                "--count", "1",
                "--no-clear",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
            timeout=60,
            check=True,
        )
        assert "serve watch" in out.stdout
        assert "alerts" in out.stdout


class TestDriftAlertLifecycle:
    def test_drift_fires_shows_in_watch_and_log_then_resolves(
        self, tmp_path, fitted_a, ookla_a, catalog_a
    ):
        log_path = tmp_path / "alerts.jsonl"
        client, server, thread = _build(
            tmp_path,
            fitted_a,
            ookla_a,
            catalog_a,
            alert_log=str(log_path),
        )
        service = server.service
        try:
            # Baseline traffic near the training distribution.
            stats = service.registry.records()[0].training_stats
            mean_down = stats["download_mbps"]["mean"]
            mean_up = stats["upload_mbps"]["mean"]
            client.assign([mean_down] * 10, [mean_up] * 10)
            assert service.alerts.evaluate() == []

            # Shifted traffic past drift_min_samples flags the model...
            client.assign([4_000.0] * 50, [300.0] * 50)
            events = service.alerts.evaluate()
            fired = [e for e in events if e["event"] == "fired"]
            assert [e["rule"] for e in fired] == ["model_drift"]

            # ...which the watch snapshot surfaces...
            snap = take_snapshot(client)
            assert snap["alerts"]["active"]
            text = render_snapshot(snap)
            assert "model_drift" in text
            assert "[critical]" in text

            # ...and /metrics counts.
            series = parse_prometheus_text(client.metrics_text())
            assert series["serve_alerts_fired_total"][0][1] == 1.0
            assert series["serve_alerts_active"][0][1] == 1.0

            # Normal traffic pulls the observed means back under the
            # drift threshold; the alert resolves.
            resolved: list[dict] = []
            for _ in range(40):
                client.assign([mean_down] * 1_000, [mean_up] * 1_000)
                events = service.alerts.evaluate()
                resolved = [
                    e for e in events if e["event"] == "resolved"
                ]
                if resolved:
                    break
            assert [e["rule"] for e in resolved] == ["model_drift"]
            assert service.alerts.active() == []
            assert "active=0" in render_snapshot(take_snapshot(client))

            # The JSONL log recorded the whole lifecycle.
            rows = [
                json.loads(line)
                for line in log_path.read_text().splitlines()
            ]
            assert [row["event"] for row in rows] == [
                "start",
                "fired",
                "resolved",
            ]
            assert rows[1]["rule"] == "model_drift"
            assert rows[1]["severity"] == "critical"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
