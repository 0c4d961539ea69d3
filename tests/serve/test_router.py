"""Tests for the sharded worker fleet behind the front router.

One module-scoped two-worker fleet serves two cities whose ``(city,
isp)`` hashes land on different shards; tests cover routing
byte-identity, worker failover, telemetry aggregation, and error
relay.  Workers are real subprocesses, so this module is the slowest
in the serving suite.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.bst import BSTModel
from repro.market.isps import city_catalog
from repro.obs.metrics import parse_prometheus_text
from repro.serve.client import ServeClient, ServeError
from repro.serve.engine import TierAssigner
from repro.serve.registry import ModelRegistry, shard_for
from repro.serve.router import RouterConfig, build_router
from repro.serve.server import ServeConfig, build_server
from repro.vendors.ookla import OoklaSimulator

N_WORKERS = 2


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """(client, server, {city: (result, downloads, uploads)})."""
    root = tmp_path_factory.mktemp("router-registry")
    registry = ModelRegistry(root)
    models = {}
    for city in ("A", "B"):
        table = OoklaSimulator(city, seed=11).generate(3_000)
        catalog = city_catalog(city)
        downs = np.asarray(table["download_mbps"], dtype=float)
        ups = np.asarray(table["upload_mbps"], dtype=float)
        result = BSTModel(catalog).fit(downs, ups)
        registry.register(
            registry.key_for(city, catalog),
            result,
            downloads=downs,
            uploads=ups,
        )
        models[city] = (result, downs, ups)
    server = build_router(
        root,
        RouterConfig(port=0, n_workers=N_WORKERS, default_city="A"),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}", timeout_s=60.0)
    yield client, server, models
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)


def test_cities_land_on_distinct_shards():
    shards = {
        city: shard_for(city, city_catalog(city).isp_name, N_WORKERS)
        for city in ("A", "B")
    }
    assert set(shards.values()) == set(range(N_WORKERS))


def test_routed_assignment_is_byte_identical(fleet):
    client, _, models = fleet
    for city, (result, downs, ups) in models.items():
        exact = TierAssigner(result).assign(downs[:400], ups[:400])
        out = client.assign(
            downs[:400].tolist(), ups[:400].tolist(), city=city
        )
        assert out["tiers"] == exact.tiers.tolist()
        assert out["group_indices"] == exact.group_indices.tolist()
        assert out["model"]["city"] == city


def test_default_city_routes_without_selector(fleet):
    client, _, models = fleet
    result, downs, ups = models["A"]
    out = client.assign(downs[:5].tolist(), ups[:5].tolist())
    assert out["model"]["city"] == "A"


def test_healthz_reports_fleet(fleet):
    client, _, _ = fleet
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["router"]["n_workers"] == N_WORKERS
    assert health["router"]["workers_alive"] == N_WORKERS
    assert len(health["workers"]) == N_WORKERS
    for worker_health in health["workers"]:
        assert worker_health["status"] == "ok"


def test_models_endpoint_lists_both_cities(fleet):
    client, _, _ = fleet
    cities = {record["city"] for record in client.models()}
    assert cities == {"A", "B"}


def test_metrics_aggregate_across_workers(fleet):
    client, _, models = fleet
    # Touch both shards so both workers hold traffic counters.
    for city, (_, downs, ups) in models.items():
        client.assign(downs[:3].tolist(), ups[:3].tolist(), city=city)
    families = parse_prometheus_text(client.metrics_text())
    # Worker families survive aggregation and keep their sample shape.
    assert families["serve_requests_total"][0][1] > 0
    assert families["serve_status_2xx_total"][0][1] > 0
    assert "serve_request_latency_s_window" in families
    # The router's own instruments ride along in the same exposition.
    assert families["serve_router_requests_total"][0][1] > 0
    assert families["serve_router_forwarded_total"][0][1] > 0
    assert families["serve_router_workers_alive"][0][1] == N_WORKERS


def test_error_relay_keeps_structured_body(fleet):
    client, _, _ = fleet
    with pytest.raises(ServeError) as excinfo:
        client.assign([1.0], [1.0], city="Z")
    assert excinfo.value.status == 404
    assert excinfo.value.trace_id
    with pytest.raises(ServeError) as excinfo:
        client.assign([float("nan")], [1.0], city="A")
    assert excinfo.value.status == 400
    assert excinfo.value.trace_id


def test_dead_worker_restarts_on_next_request(fleet):
    client, server, models = fleet
    result, downs, ups = models["A"]
    shard = shard_for("A", city_catalog("A").isp_name, N_WORKERS)
    handle = server.router.workers[shard]
    old_pid = handle.pid
    handle.proc.kill()
    handle.proc.wait()
    assert not handle.alive
    out = client.assign(downs[:10].tolist(), ups[:10].tolist(), city="A")
    exact = TierAssigner(result).assign(downs[:10], ups[:10])
    assert out["tiers"] == exact.tiers.tolist()
    assert handle.alive
    assert handle.pid != old_pid
    assert handle.restarts >= 1


def test_reload_fans_out_to_owning_shard(fleet, tmp_path):
    """POST /reload re-registers + hot-swaps through the router."""
    client, server, models = fleet
    registry = server.router.registry
    result, downs, ups = models["A"]
    catalog = city_catalog("A")
    key = registry.key_for("A", catalog)
    slug = key.slug
    new_fit = BSTModel(catalog).fit(downs * 0.35, ups * 0.35)
    new_expected = TierAssigner(new_fit).assign(downs[:50], ups[:50])
    old_expected = TierAssigner(result).assign(downs[:50], ups[:50])
    assert new_expected.tiers.tolist() != old_expected.tiers.tolist()
    try:
        registry.register(key, new_fit, downloads=downs, uploads=ups)
        out = client.reload([slug])
        assert slug in out["reloaded"]
        assert len(out["workers"]) == 1  # only the owning shard
        assert out["workers"][0]["status"] == 200
        swapped = client.assign(
            downs[:50].tolist(), ups[:50].tolist(), city="A"
        )
        assert swapped["tiers"] == new_expected.tiers.tolist()
    finally:
        # Restore the original generation for any later test.
        registry.register(key, result, downloads=downs, uploads=ups)
        client.reload([slug])
    back = client.assign(downs[:50].tolist(), ups[:50].tolist(), city="A")
    assert back["tiers"] == old_expected.tiers.tolist()


def _post(base_url, path, body, headers=None):
    """(status, headers, body) of one POST, error statuses included."""
    request = urllib.request.Request(
        base_url + path,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


def test_router_honours_incoming_trace_id(fleet):
    client, _, _ = fleet
    trace_id = "00deadbeef00aa11"
    body = json.dumps(
        {"downloads": [110.0], "uploads": [5.5], "city": "A"}
    ).encode()
    status, headers, payload = _post(
        client.base_url, "/assign", body, {"X-Trace-Id": trace_id}
    )
    assert status == 200
    assert headers["X-Trace-Id"] == trace_id
    assert json.loads(payload)["trace_id"] == trace_id
    # A worker-side 400 relayed through the router carries the same id.
    bad = json.dumps(
        {"downloads": [float("nan")], "uploads": [1.0], "city": "A"}
    ).encode()
    status, headers, payload = _post(
        client.base_url, "/assign", bad, {"X-Trace-Id": trace_id}
    )
    assert status == 400
    assert headers["X-Trace-Id"] == trace_id
    assert json.loads(payload)["error"]["trace_id"] == trace_id


@pytest.fixture(scope="module")
def single(fleet):
    """A single-process server over the fleet's registry."""
    _, router_server, _ = fleet
    server = build_server(
        ModelRegistry(router_server.router.registry.root),
        ServeConfig(port=0, default_city="A", alert_interval_s=0),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield ServeClient(f"http://{host}:{port}")
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _json_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"invalid JSON body: {exc}"
    raise AssertionError(f"{text!r} is valid JSON")


_UNKNOWN_CITY = json.dumps({"downloads": [1.0], "uploads": [1.0], "city": "Z"})
ERROR_CASES = [
    ("POST", "/assign", b"", 400, "missing request body"),
    ("POST", "/assign", b"{not json", 400, _json_error("{not json")),
    ("POST", "/assign", b"[1, 2]", 400, "request body must be a JSON object"),
    ("GET", "/nope", None, 404, "unknown path '/nope'"),
    ("POST", "/nope", b"{}", 404, "unknown path '/nope'"),
    (
        "POST", "/reload", b'{"slugs": [1, 2]}',
        400, "'slugs' must be a list of model slugs",
    ),
    (
        "POST", "/assign", _UNKNOWN_CITY.encode(),
        404, "no registered model matches city='Z' isp=None config_hash=None",
    ),
]


@pytest.mark.parametrize("target", ["single", "fleet"])
@pytest.mark.parametrize(
    "method,path,body,status,message",
    ERROR_CASES,
    ids=["empty", "non-json", "non-object", "get-404", "post-404",
         "bad-slugs", "unknown-city"],
)
def test_error_envelope_parity(
    request, target, method, path, body, status, message
):
    """The single server and the router answer bad input identically."""
    fixture = request.getfixturevalue(target)
    client = fixture if target == "single" else fixture[0]
    req = urllib.request.Request(
        client.base_url + path, data=body, method=method
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=60)
    error = json.loads(err.value.read())["error"]
    assert (err.value.code, error["code"], error["message"]) == (
        status, status, message,
    )
    assert error["trace_id"] == err.value.headers["X-Trace-Id"]
