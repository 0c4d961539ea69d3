"""Tests for the sharded worker fleet behind the front router.

One module-scoped two-worker fleet serves two cities whose ``(city,
isp)`` hashes land on different shards; tests cover routing
byte-identity, worker failover, the pooled worker connections,
telemetry aggregation, and error relay.  Workers are real subprocesses,
so this module is the slowest in the serving suite.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.bst import BSTModel
from repro.market.isps import city_catalog
from repro.obs.metrics import (
    MetricsRegistry,
    parse_prometheus_text,
    use_registry,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.engine import TierAssigner
from repro.serve.registry import ModelRegistry, shard_for
from repro.serve.router import (
    WorkerHandle,
    _RouterService,
    build_router,
)
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
        ServeConfig(port=0, workers=N_WORKERS, default_city="A"),
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


def test_engine_counters_reach_the_router_metrics(fleet):
    """Each worker renders its assignment counters on its own /metrics, so
    the router's merged exposition counts every row assigned, across
    both shards.  A fresh fleet on the same store starts from zero."""
    _, server, models = fleet
    fresh = build_router(
        server.router.registry.root,
        ServeConfig(port=0, workers=N_WORKERS, default_city="A"),
    )
    thread = threading.Thread(target=fresh.serve_forever, daemon=True)
    thread.start()
    host, port = fresh.server_address[:2]
    client = ServeClient(f"http://{host}:{port}", timeout_s=60.0)
    sent = {"A": 7, "B": 5}
    try:
        for city, n in sent.items():
            _, downs, ups = models[city]
            client.assign(downs[:n].tolist(), ups[:n].tolist(), city=city)
        families = parse_prometheus_text(client.metrics_text())
    finally:
        fresh.shutdown()
        fresh.server_close()
        thread.join(timeout=30)
    assert families["serve_assigned_total"] == [({}, sum(sent.values()))]


def test_router_samples_join_the_worker_merge(tmp_path):
    """The router's process registry may hold a family its workers also
    report (an instrument any code in the router process writes); the
    merged exposition names it once, summed."""
    config = ServeConfig(workers=2)
    with use_registry(MetricsRegistry()) as installed:
        router = _RouterService(
            ModelRegistry(tmp_path),
            config,
            [WorkerHandle(shard, tmp_path, config) for shard in (0, 1)],
        )
    assert router.metrics is installed
    installed.counter("serve.assigned").inc(9000)
    router.scrape_worker = lambda handle, path: (
        b"# TYPE serve_assigned_total counter\nserve_assigned_total 1\n"
    )
    families = parse_prometheus_text(router.metrics_text())
    assert families["serve_assigned_total"] == [({}, 9002.0)]


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
    """(client, server): a single-process server over the fleet's registry."""
    _, router_server, _ = fleet
    server = build_server(
        ModelRegistry(router_server.router.registry.root),
        ServeConfig(port=0, default_city="A", alert_interval_s=0),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield ServeClient(f"http://{host}:{port}"), server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _json_error(body):
    try:
        json.loads(body)
    except ValueError as exc:
        return f"invalid JSON body: {exc}"
    raise AssertionError(f"{body!r} is valid JSON")


def _not_found(city):
    return (
        f"no registered model matches city={city!r} isp=None "
        "config_hash=None"
    )


def _assign_body(city, downloads="[1.0]"):
    return (
        f'{{"downloads": {downloads}, "uploads": [1.0], "city": {city}}}'
    ).encode()


_UNKNOWN_CITY = _assign_body('"Z"')
_HOLEY = _assign_body('"A"', downloads="[1,,2]")
_HOLEY_UNKNOWN = _assign_body('"Z"', downloads="[1,,2]")
_NON_UTF8 = b'{"downloads": [1.0], "uploads": [1.0], "city": "\xff"}'
ERROR_CASES = [
    ("POST", "/assign", b"", None, 400, "missing request body"),
    ("POST", "/assign", b"{not json", None, 400, _json_error("{not json")),
    (
        "POST", "/assign", b"[1, 2]", None,
        400, "request body must be a JSON object",
    ),
    ("GET", "/nope", None, None, 404, "unknown path '/nope'"),
    ("POST", "/nope", b"{}", None, 404, "unknown path '/nope'"),
    (
        "POST", "/reload", b'{"slugs": [1, 2]}', None,
        400, "'slugs' must be a list of model slugs",
    ),
    ("POST", "/assign", _UNKNOWN_CITY, None, 404, _not_found("Z")),
    (
        "POST", "/assign", b"{}", {"Content-Length": "abc"},
        400, "invalid Content-Length header: 'abc'",
    ),
    (
        "POST", "/assign", b"{}", {"Content-Length": "1e3"},
        400, "invalid Content-Length header: '1e3'",
    ),
    # Bodies that probe the router's selector-only decode.
    ("POST", "/assign", _HOLEY, None, 400, _json_error(_HOLEY)),
    (
        "POST", "/assign", _assign_body(r'"A[1]\"x\""'), None,
        404, _not_found('A[1]"x"'),
    ),
    (
        "POST", "/assign", _assign_body('{"city": "A", "n": [1]}'), None,
        404, _not_found({"city": "A", "n": [1]}),
    ),
    (
        "POST", "/assign",
        b'{"city": "A", "downloads": [1.0], "uploads": [1.0], "city": "Z"}',
        None, 404, _not_found("Z"),
    ),
    ("POST", "/assign", _HOLEY_UNKNOWN, None, 400, _json_error(_HOLEY_UNKNOWN)),
    (
        "POST", "/assign", _UNKNOWN_CITY.decode().encode("utf-16"), None,
        404, _not_found("Z"),
    ),
    ("POST", "/assign", _NON_UTF8, None, 400, _json_error(_NON_UTF8)),
]


@pytest.mark.parametrize("target", ["single", "fleet"])
@pytest.mark.parametrize(
    "method,path,body,headers,status,message",
    ERROR_CASES,
    ids=["empty", "non-json", "non-object", "get-404", "post-404",
         "bad-slugs", "unknown-city", "content-length-abc",
         "content-length-1e3", "holey-array", "bracketed-city",
         "nested-city", "duplicate-city", "holey-array-unknown-city",
         "utf-16", "non-utf-8"],
)
def test_error_envelope_parity(
    request, target, method, path, body, headers, status, message
):
    """The single server and the router answer bad input identically."""
    client = request.getfixturevalue(target)[0]
    req = urllib.request.Request(
        client.base_url + path, data=body, headers=headers or {},
        method=method,
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=60)
    error = json.loads(err.value.read())["error"]
    assert (err.value.code, error["code"], error["message"]) == (
        status, status, message,
    )
    assert error["trace_id"] == err.value.headers["X-Trace-Id"]


@pytest.mark.parametrize("target", ["single", "fleet"])
@pytest.mark.parametrize("case", ["unknown-path", "too-large"])
def test_unread_body_does_not_poison_keepalive(
    request, monkeypatch, target, case
):
    """An error answered before the body is read closes the connection;
    left open, the unread body would be parsed as the next request."""
    client, server = request.getfixturevalue(target)[:2]
    if case == "too-large":
        monkeypatch.setattr(server, "max_body_bytes", 64)
        path, body, status = "/assign", _UNKNOWN_CITY.ljust(220), 413
    else:
        path, body, status = "/nope", b'{"downloads": [1.0]}', 404
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("POST", path, body=body)
        response = conn.getresponse()
        error = json.loads(response.read())["error"]
        assert (response.status, error["code"]) == (status, status)
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
    finally:
        conn.close()


def _router_counter(router, name):
    return router.metrics.counter(f"serve.router.{name}").value


@pytest.fixture
def pooled(fleet):
    """A router service with one in-process worker that records each
    connection it accepts: (router, handle, accepted, forward)."""
    _, router_server, models = fleet
    root = router_server.router.registry.root
    worker = build_server(
        ModelRegistry(root),
        ServeConfig(port=0, default_city="A", alert_interval_s=0),
    )
    accepted = []

    class Tracked(worker.RequestHandlerClass):
        def setup(self):
            super().setup()
            accepted.append(self.connection)

    worker.RequestHandlerClass = Tracked
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    config = ServeConfig(workers=1)
    handle = WorkerHandle(0, root, config)
    handle.address = worker.server_address[:2]
    with use_registry(MetricsRegistry()):
        router = _RouterService(ModelRegistry(root), config, [handle])
    result, downs, ups = models["A"]
    exact = TierAssigner(result).assign(downs[:20], ups[:20]).tiers.tolist()
    body = json.dumps(
        {"downloads": downs[:20].tolist(), "uploads": ups[:20].tolist(),
         "city": "A"}
    ).encode()
    record = router.registry.resolve("A")

    def forward():
        status, payload = router.forward_assign(body, record, "0" * 16)
        assert status == 200
        assert json.loads(payload)["tiers"] == exact

    try:
        yield router, handle, accepted, forward
    finally:
        handle.stop()
        worker.shutdown()
        worker.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_idle_connection_closed_by_worker_is_retried_fresh(pooled):
    """A pooled connection the worker ended while it sat idle (its
    socket timeout, in production) costs one fresh connection: the
    answer is right and neither retries nor restarts move."""
    router, handle, accepted, forward = pooled
    forward()
    forward()
    assert len(accepted) == 1  # the second forward reused the first
    accepted[0].shutdown(socket.SHUT_RDWR)
    forward()
    assert len(accepted) == 2
    forward()
    assert len(accepted) == 2
    assert _router_counter(router, "retries") == 0
    assert _router_counter(router, "worker_restarts") == 0
    assert handle.restarts == 0


def test_pool_under_concurrent_forwards(pooled):
    """More threads than cores forward at once with a short switch
    interval: every answer is right, and each connection the worker
    accepted ends up pooled exactly once (none lost, none shared)."""
    router, handle, accepted, forward = pooled
    errors = []

    def run():
        try:
            for _ in range(15):
                forward()
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    idle = []
    while True:
        conn, pooled_conn = handle.checkout()
        if not pooled_conn:
            break
        idle.append(conn)
    assert len({id(conn) for conn in idle}) == len(idle) == len(accepted)
    for conn in idle:
        handle.checkin(conn)
    assert _router_counter(router, "retries") == 0


def test_router_close_after_traffic_is_prompt(fleet):
    """Closing the router drops its pooled worker connections before
    it SIGTERMs the workers, so no worker waits out its 10 s socket
    timeout on a connection the router kept open."""
    _, server, models = fleet
    fresh = build_router(
        server.router.registry.root,
        ServeConfig(port=0, workers=N_WORKERS, default_city="A"),
    )
    thread = threading.Thread(target=fresh.serve_forever, daemon=True)
    thread.start()
    host, port = fresh.server_address[:2]
    client = ServeClient(f"http://{host}:{port}", timeout_s=60.0)
    try:
        for city, (_, downs, ups) in models.items():
            for _ in range(3):
                client.assign(downs[:5].tolist(), ups[:5].tolist(), city=city)
        client.healthz()
        client.metrics_text()
    finally:
        fresh.shutdown()
        started = time.monotonic()
        fresh.server_close()
        elapsed = time.monotonic() - started
        thread.join(timeout=30)
    assert elapsed < 5.0, elapsed
