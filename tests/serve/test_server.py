"""Tests for the assignment HTTP service and its client.

In-process servers run on an ephemeral port per test module; one test
drives the real CLI in a subprocess and checks SIGTERM drains cleanly.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.engine import TierAssigner
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeConfig, build_server

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def served(tmp_path_factory, fitted_a, request):
    """A live in-process server over a one-model registry."""
    ookla_a = request.getfixturevalue("ookla_a")
    catalog_a = request.getfixturevalue("catalog_a")
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    downs = np.asarray(ookla_a["download_mbps"], dtype=float)
    ups = np.asarray(ookla_a["upload_mbps"], dtype=float)
    registry.register(
        registry.key_for("A", catalog_a),
        fitted_a,
        downloads=downs,
        uploads=ups,
    )
    config = ServeConfig(port=0, default_city="A", drift_min_samples=50)
    server = build_server(registry, config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}")
    yield client, server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def test_assign_endpoint_matches_engine(served, fitted_a, fresh_sample):
    client, _ = served
    downs, ups = fresh_sample
    expected = TierAssigner(fitted_a).assign(downs[:30], ups[:30])
    out = client.assign(downs[:30].tolist(), ups[:30].tolist())
    assert out["tiers"] == expected.tiers.tolist()
    assert out["group_indices"] == expected.group_indices.tolist()
    assert len(out["group_labels"]) == 30
    assert out["model"]["city"] == "A"


def test_streamed_single_tuple(served, fitted_a):
    client, _ = served
    tier, label = client.assign_one(110.0, 5.5)
    expected_tier, expected_group = TierAssigner(fitted_a).assign_one(
        110.0, 5.5
    )
    assert tier == expected_tier
    labels = [g.tier_label for g in fitted_a.upload_stage.groups]
    assert label == labels[expected_group]


def test_models_endpoint(served):
    client, _ = served
    models = client.models()
    assert len(models) == 1
    assert models[0]["city"] == "A"
    assert models[0]["train_size"] > 0
    assert models[0]["age_s"] >= 0
    assert "training_stats" in models[0]


def test_healthz_reports_counts_and_drift(served):
    client, _ = served
    client.assign([110.0], [5.5])  # ensure at least one model is loaded
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["models_registered"] == 1
    assert health["models_loaded"] == 1
    assert health["requests"] > 0
    assert isinstance(health["drift"], list)
    verdict = health["drift"][0]
    assert {"model", "drifted", "directions"} <= set(verdict)


def test_drift_flags_shifted_traffic(served):
    client, server = served
    # Flood with traffic ~20x the training mean; the drift check must
    # flag the model once past drift_min_samples observations.
    downs = [20_000.0 / 4.0] * 60  # still below the outlier threshold
    ups = [600.0] * 60
    client.assign(downs, ups)
    drifted = [d for d in server.service.drift_status() if d["drifted"]]
    assert drifted, "shifted traffic not flagged as drift"
    directions = drifted[0]["directions"]
    assert directions["download_mbps"]["status"] == "drifted"
    assert directions["download_mbps"]["rel_deviation"] > 0.5


def test_bad_payloads_are_400(served):
    client, _ = served
    with pytest.raises(ServeError) as err:
        client.assign([1.0, 2.0], [1.0])
    assert err.value.status == 400
    with pytest.raises(ServeError) as err:
        client.assign([float("nan")], [1.0])
    assert err.value.status == 400
    with pytest.raises(ServeError) as err:
        client.assign([], [])
    assert err.value.status == 400


def test_malformed_json_is_400(served):
    client, _ = served
    request = urllib.request.Request(
        client.base_url + "/assign",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    assert err.value.code == 400


def test_unknown_model_is_404(served):
    client, _ = served
    with pytest.raises(ServeError) as err:
        client.assign([100.0], [5.0], city="Z")
    assert err.value.status == 404


def test_unknown_path_is_404(served):
    client, _ = served
    with pytest.raises(ServeError) as err:
        client._request("GET", "/nope")
    assert err.value.status == 404


def test_oversized_body_is_413(tmp_path, fitted_a, catalog_a):
    registry = ModelRegistry(tmp_path / "models")
    registry.register(registry.key_for("A", catalog_a), fitted_a)
    config = ServeConfig(port=0, default_city="A", max_body_bytes=128)
    server = build_server(registry, config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServeClient(f"http://{host}:{port}")
        with pytest.raises(ServeError) as err:
            client.assign([100.0] * 64, [5.0] * 64)
        assert err.value.status == 413
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_cli_serve_sigterm_drains_cleanly(tmp_path):
    """`repro serve` fits on miss, answers requests, exits 0 on SIGTERM."""
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO_ROOT / "src"),
        REPRO_LEDGER="0",
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--city", "A",
            "--registry", str(tmp_path / "models"),
            "--port", "0",
            "--n", "2000",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    try:
        url = None
        for line in proc.stdout:
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                url = match.group(1)
                break
        assert url, "server never printed its address"
        body = json.dumps(
            {"downloads": [110.0, 900.0], "uploads": [5.5, 40.0]}
        ).encode()
        request = urllib.request.Request(
            url + "/assign",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        out = json.loads(urllib.request.urlopen(request, timeout=30).read())
        assert len(out["tiers"]) == 2
        health = json.loads(
            urllib.request.urlopen(url + "/healthz", timeout=30).read()
        )
        assert health["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_incoming_trace_id_is_honored(served):
    client, _ = served
    request = urllib.request.Request(
        f"{client.base_url}/healthz",
        headers={"X-Trace-Id": "00deadbeef00aa11"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.headers["X-Trace-Id"] == "00deadbeef00aa11"
    # Malformed ids are ignored; a fresh well-formed id is minted.
    request = urllib.request.Request(
        f"{client.base_url}/healthz",
        headers={"X-Trace-Id": "not-a-trace-id"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        echoed = response.headers["X-Trace-Id"]
        assert re.fullmatch(r"[0-9a-f]{16}", echoed)
        assert echoed != "not-a-trace-id"


def test_keepalive_requests_do_not_stall(served):
    """Back-to-back requests on one keep-alive connection stay fast.

    The handler sends headers and body separately; without TCP_NODELAY
    Nagle's algorithm holds the body until the client's delayed ACK,
    ~40 ms per request.
    """
    _, server = served
    host, port = server.server_address[:2]
    body = json.dumps({"downloads": [110.0], "uploads": [5.5]}).encode()
    conn = http.client.HTTPConnection(host, port, timeout=10)
    elapsed = []
    try:
        for _ in range(30):
            start = time.perf_counter()
            conn.request(
                "POST",
                "/assign",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            elapsed.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        conn.close()
    assert statistics.median(elapsed) < 0.020, elapsed
