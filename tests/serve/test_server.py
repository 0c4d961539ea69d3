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

from repro.core.bst import BSTModel
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.runs import RunLedger
from repro.serve.client import ServeClient, ServeError
from repro.serve.engine import TierAssigner
from repro.serve.registry import ModelRegistry
from repro.serve.server import (
    AssignmentService,
    ServeConfig,
    build_server,
)

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


def test_assign_payload_counts_the_rows_it_answers(
    tmp_path, fitted_a, ookla_a, catalog_a, fresh_sample
):
    """``serve.assigned`` counts every answered row -- batched or
    streamed -- and ``serve.fallback_assigned`` the answers'
    ``n_fallback``; the registration before serving counts nothing, and
    no other ``*_assigned`` counter exists."""
    stages = dict(fitted_a.download_stages)
    amputated_group, _ = stages.popitem()  # its rows take the fallback
    amputated = type(fitted_a)(
        catalog=fitted_a.catalog,
        upload_stage=fitted_a.upload_stage,
        download_stages=stages,
        group_indices=fitted_a.group_indices,
        tiers=fitted_a.tiers,
    )
    downs, ups = fresh_sample
    groups = TierAssigner(amputated).assign(downs, ups).group_indices
    in_fallback = np.flatnonzero(groups == amputated_group)[:5]
    fitted = np.flatnonzero(groups != amputated_group)[:5]
    registry = ModelRegistry(tmp_path)
    config = ServeConfig(default_city="A", alert_interval_s=0.0)
    # As in a cold `repro serve`: register, then serve, both under the
    # process registry.
    with use_registry(MetricsRegistry()):
        registry.register(
            registry.key_for("A", catalog_a),
            amputated,
            downloads=np.asarray(ookla_a["download_mbps"], dtype=float),
            uploads=np.asarray(ookla_a["upload_mbps"], dtype=float),
        )
        service = AssignmentService(registry, config)
    try:
        answers = [
            service.assign_payload(
                {
                    "downloads": downs[:500].tolist(),
                    "uploads": ups[:500].tolist(),
                }
            )
        ]
        for i in [*in_fallback, *fitted]:
            streamed = {
                "downloads": [downs[i]],
                "uploads": [ups[i]],
                "stream": True,
            }
            answers.append(service.assign_payload(streamed))
    finally:
        service.close()
    counts = service.metrics.snapshot()

    def counted(name: str) -> float:
        return counts.get(name, {}).get("value", 0.0)

    assert counted("serve.assigned") == 510
    assert {name for name in counts if name.endswith("_assigned")} == {
        "serve.fallback_assigned"
    }
    n_fallback = [answer["n_fallback"] for answer in answers]
    assert n_fallback[1:] == [1] * 5 + [0] * 5
    assert counted("serve.fallback_assigned") == sum(n_fallback) > 5


@pytest.mark.parametrize("mmap_models", [False, True])
def test_service_loads_each_model_once_per_reload_generation(
    tmp_path, fitted_a, ookla_a, catalog_a, fresh_sample, mmap_models
):
    """A worker-shaped service -- its own registry over a root that
    another registry object wrote -- loads each served model from disk
    once per reload generation, and answers the same every generation."""
    half = len(fitted_a) // 2
    fitted_b = BSTModel(catalog_a).fit(
        np.asarray(ookla_a["download_mbps"], dtype=float)[:half],
        np.asarray(ookla_a["upload_mbps"], dtype=float)[:half],
    )
    writer = ModelRegistry(tmp_path)
    cities = ("A", "B")
    for city, fitted in zip(cities, (fitted_a, fitted_b)):
        writer.register(writer.key_for(city, catalog_a), fitted)
    downs, ups = fresh_sample
    payloads = []
    for city in cities:
        payloads += [
            {
                "city": city,
                "downloads": downs[lo:lo + 50].tolist(),
                "uploads": ups[lo:lo + 50].tolist(),
            }
            for lo in range(0, 500, 50)
        ]
        payloads.append(
            {
                "city": city,
                "downloads": [downs[0]],
                "uploads": [ups[0]],
                "stream": True,
            }
        )
    generations = 3
    with use_registry(MetricsRegistry()) as metrics:
        service = AssignmentService(
            ModelRegistry(tmp_path),
            ServeConfig(alert_interval_s=0.0, mmap_models=mmap_models),
        )
        try:
            answers = []
            for _ in range(generations):
                answers.append([service.assign_payload(p) for p in payloads])
                service.reload()
        finally:
            service.close()
    loads = len(cities) * generations
    assert metrics.counter("serve.registry.loads").value == (
        0 if mmap_models else loads
    )
    assert metrics.counter("serve.registry.shared_loads").value == (
        loads if mmap_models else 0
    )
    assert answers[1:] == answers[:1] * (generations - 1)


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
    drifted = [d for d in server.service.verdicts() if d["drifted"]]
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


@pytest.mark.parametrize(
    "downloads, uploads",
    [([100.0], [5.0, 6.0]), ([100.0], []), ([100.0], [float("inf")])],
    ids=["unpaired", "empty-uploads", "non-finite"],
)
def test_malformed_streamed_bodies_are_400(served, downloads, uploads):
    """A streamed body gets the batch path's validation: it is refused
    as its batch twin is (test_bad_payloads_are_400)."""
    client, _ = served
    body = {"downloads": downloads, "uploads": uploads, "stream": True}
    with pytest.raises(ServeError) as err:
        client._request("POST", "/assign", body)
    assert err.value.status == 400


@pytest.mark.parametrize("stream", [False, True], ids=["batch", "stream"])
@pytest.mark.parametrize(
    "wrap",
    [lambda v: [[v]], lambda v: v],
    ids=["nested", "scalar"],
)
def test_nested_and_scalar_assign_bodies_answer_their_row(
    served, fitted_a, wrap, stream
):
    """A nested or scalar body is its flattened row: the exact engine's
    answer, and one 1-D row in the model's drift window and sample."""
    client, server = served
    body = {"downloads": wrap(110.0), "uploads": wrap(5.5), "stream": stream}
    out = client._request("POST", "/assign", body)
    tier, group = TierAssigner(fitted_a).assign_one(110.0, 5.5)
    assert out["tiers"] == [tier]
    assert out["group_indices"] == [group]
    downs, ups = server.service.recent_sample("A", fitted_a.catalog.isp_name)
    assert downs.ndim == ups.ndim == 1
    assert (downs[-1], ups[-1]) == (110.0, 5.5)


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


def _alerts_evaluated(health: dict) -> bool:
    """Whether every serving process has run an alert evaluation (a
    router's /healthz nests one health row per worker)."""
    rows = health["workers"] if "router" in health else [health]
    return all(row["alerts"]["evaluations"] > 0 for row in rows)


def _drive_cli_serve(tmp_path, *flags: str, n_assign: int) -> None:
    """Run `repro serve` on City-A: ``n_assign`` one-row /assign calls,
    wait for every process's alert evaluation, then SIGTERM (exit 0)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--city", "A",
            "--registry", str(tmp_path / "models"),
            "--port", "0",
            "--n", "2000",
            "--alert-interval", "0.05",
            *flags,
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
        client = ServeClient(url)
        for _ in range(n_assign):
            client.assign([110.0], [5.5])
        deadline = time.monotonic() + 30
        while not _alerts_evaluated(client.healthz()):
            assert time.monotonic() < deadline, "no alert evaluation"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_cli_serve_ledger_retains_no_request_spans(tmp_path):
    """Under the run ledger `repro serve` records its startup fit's spans
    but none per request or alert pass; --trace-out still gets them."""
    ledger = tmp_path / "runs.jsonl"
    for _ in ("cold start: fits", "warm start: no fit"):
        _drive_cli_serve(tmp_path, "--ledger", str(ledger), n_assign=20)
    cold, warm = RunLedger(str(ledger)).matching(name="serve")
    assert "contextualize" in cold.span_table
    assert "serve.request" not in cold.span_table
    assert "alerts.evaluate" not in cold.span_table
    assert warm.span_table == {}

    trace = tmp_path / "trace.jsonl"
    _drive_cli_serve(
        tmp_path, "--no-ledger", "--trace-out", str(trace), n_assign=20
    )
    names = [json.loads(row)["name"] for row in trace.read_text().splitlines()]
    assert names.count("serve.assign") == 20
    assert names.count("serve.request") >= 20
    assert "alerts.evaluate" in names


def test_cli_serve_manifest_records_its_startup(tmp_path):
    """A `repro serve` manifest records its startup, never its traffic: a
    cold start counts one assignment per fitted row, and over the same
    traffic warm starts under --workers 1 and 2 record the same."""
    ledger = tmp_path / "runs.jsonl"
    for workers in ("1", "1", "2"):  # cold, then warm twice
        _drive_cli_serve(
            tmp_path, "--ledger", str(ledger), "--workers", workers,
            n_assign=5,
        )
    cold, warm_one, warm_two = RunLedger(str(ledger)).matching(name="serve")
    (record,) = ModelRegistry(tmp_path / "models").records()
    assert cold.quality.n_assignments == record.train_size
    assert warm_one.metrics == warm_two.metrics
    # As JSON: an empty report's entropy is NaN, unequal to itself.
    assert json.dumps(warm_one.quality.to_dict()) == json.dumps(
        warm_two.quality.to_dict()
    )
    for manifest in (cold, warm_one):
        assert "serve.requests" not in manifest.metrics
        assert manifest.exit_code == 0


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
