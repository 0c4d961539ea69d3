"""Shutdown of the HTTP plumbing both serving roles share.

``server_close`` drains in-flight requests, but a connection that is
only waiting for its next request must not hold the drain for a whole
socket timeout (10 s for the server, 30 s for the router).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.serve.registry import ModelRegistry
from repro.serve.router import RouterServer, WorkerHandle, _RouterService
from repro.serve.server import ServeConfig, build_server

# Well under either role's socket timeout.
PROMPT_S = 5.0


@pytest.fixture
def registry(tmp_path, fitted_a, ookla_a, catalog_a):
    registry = ModelRegistry(tmp_path / "models")
    registry.register(
        registry.key_for("A", catalog_a),
        fitted_a,
        downloads=np.asarray(ookla_a["download_mbps"], dtype=float),
        uploads=np.asarray(ookla_a["upload_mbps"], dtype=float),
    )
    return registry


def _server(registry: ModelRegistry, role: str):
    """The role's server, and a request it answers 200 on its own."""
    if role == "server":
        config = ServeConfig(port=0, default_city="A", alert_interval_s=0.0)
        return build_server(registry, config), "POST", "/assign"
    # A router whose workers never start: its own routes and shutdown
    # are the shared plumbing under test.
    config = ServeConfig(port=0, default_city="A", workers=2)
    router = _RouterService(
        registry,
        config,
        [WorkerHandle(s, registry.root, config) for s in range(2)],
    )
    return RouterServer(("127.0.0.1", 0), router), "GET", "/models"


def _close_in_background(server) -> threading.Thread:
    def close() -> None:
        server.shutdown()
        server.server_close()

    closer = threading.Thread(target=close, daemon=True)
    closer.start()
    return closer


@pytest.mark.parametrize("role", ["server", "router"])
def test_idle_keepalive_connection_does_not_hold_shutdown(registry, role):
    """One answered request left open on a kept-alive connection: the
    drain ends promptly instead of waiting out the socket timeout."""
    server, method, path = _server(registry, role)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        body = json.dumps({"downloads": [110.0], "uploads": [5.5]})
        conn.request(method, path, body=body if method == "POST" else None)
        response = conn.getresponse()
        response.read()
        assert response.status == 200
        assert not response.will_close
        closer = _close_in_background(server)
        closer.join(timeout=PROMPT_S)
        assert not closer.is_alive(), "shutdown waited on an idle connection"
    finally:
        conn.close()
        serving.join(timeout=30)


@pytest.mark.parametrize("role", ["server", "router"])
def test_request_in_flight_at_shutdown_still_answers(registry, role):
    """A request whose body is still arriving when shutdown begins is
    read to its end and answered (a 404 for its unknown city; a cut
    body would be a 400), then its connection closes."""
    server, _, _ = _server(registry, role)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    host, port = server.server_address[:2]
    body = json.dumps(
        {"city": "Z", "downloads": [110.0], "uploads": [5.5]}
    ).encode()
    head = (
        f"POST /assign HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    sock = socket.create_connection((host, port), timeout=30)
    try:
        sock.sendall(head + body[:4])
        deadline = time.monotonic() + 30
        # The handler is reading the body: its request has begun.
        while not any(
            h._observed is False for h in server._handlers.copy()
        ):
            assert time.monotonic() < deadline, "request never began"
            time.sleep(0.005)
        closer = _close_in_background(server)
        (handler,) = server._handlers.copy()
        while not handler.close_connection:
            assert time.monotonic() < deadline, "shutdown never swept"
            time.sleep(0.005)
        sock.sendall(body[4:])
        reply = sock.makefile("rb").read()  # EOF: the server closed
        closer.join(timeout=PROMPT_S)
        assert not closer.is_alive()
    finally:
        sock.close()
        serving.join(timeout=30)
    status_line, _, rest = reply.partition(b"\r\n")
    assert status_line.split()[1] == b"404", reply
    error = json.loads(rest.split(b"\r\n\r\n", 1)[1])["error"]
    assert "Z" in error["message"], error
