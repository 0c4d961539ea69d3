"""Hot-swap (`POST /reload`) under load, and client 503 retry behavior.

The torn-read contract: while a reload is in flight, every concurrent
``/assign`` response must be computed by one complete model — either
the old or the new — never a mixture, and never a 5xx burst.
"""

from __future__ import annotations

import http.server
import threading

import numpy as np
import pytest

from repro.core.bst import BSTModel
from repro.obs import metrics as obs_metrics
from repro.serve.client import ServeClient, ServeError
from repro.serve.engine import TierAssigner
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeConfig, build_server


@pytest.fixture
def swap_env(tmp_path, fitted_a, ookla_a, catalog_a):
    """A live server plus the ingredients to re-register its model."""
    registry = ModelRegistry(tmp_path / "registry")
    downs = np.asarray(ookla_a["download_mbps"], dtype=float)
    ups = np.asarray(ookla_a["upload_mbps"], dtype=float)
    key = registry.key_for("A", catalog_a)
    registry.register(key, fitted_a, downloads=downs, uploads=ups)
    server = build_server(
        registry, ServeConfig(port=0, default_city="A")
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}")
    yield registry, key, client, (downs, ups)
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestReloadEndpoint:
    def test_reload_evicts_and_repopulates(self, swap_env):
        registry, key, client, _ = swap_env
        client.assign([110.0], [5.5])
        out = client.reload()
        assert out["reloaded"] == [key.slug]
        assert out["models_loaded"] == 0
        client.assign([110.0], [5.5])  # lazily re-resolves
        assert client.healthz()["models_loaded"] == 1

    def test_reload_unknown_slug_is_a_noop(self, swap_env):
        _, _, client, _ = swap_env
        client.assign([110.0], [5.5])
        out = client.reload(slugs=["Z|ISP-Z|" + "f" * 64])
        assert out["reloaded"] == []
        assert out["models_loaded"] == 1

    def test_reload_rejects_malformed_body(self, swap_env):
        _, _, client, _ = swap_env
        with pytest.raises(ServeError) as exc_info:
            client.reload(slugs=[123])  # type: ignore[list-item]
        assert exc_info.value.status == 400

    def test_reload_counter_moves(self, swap_env):
        _, _, client, _ = swap_env
        client.reload()
        series = obs_metrics.parse_prometheus_text(client.metrics_text())
        assert series["serve_reloads_total"][0][1] == 1


class TestHotSwapUnderLoad:
    N_THREADS = 8
    N_REQUESTS = 25

    def test_no_torn_reads_no_5xx(
        self, swap_env, fitted_a, fresh_sample, catalog_a
    ):
        registry, key, client, (downs, ups) = swap_env
        probe_d, probe_u = fresh_sample
        probe_d, probe_u = probe_d[:40], probe_u[:40]
        old_expected = TierAssigner(fitted_a).assign(probe_d, probe_u)
        # A genuinely different model: refit on congested (scaled-down)
        # traffic, which moves the tier boundaries.
        new_fit = BSTModel(catalog_a).fit(downs * 0.35, ups * 0.35)
        new_expected = TierAssigner(new_fit).assign(probe_d, probe_u)
        legal = {
            tuple(old_expected.tiers.tolist()),
            tuple(new_expected.tiers.tolist()),
        }
        assert len(legal) == 2, "fixture models must assign differently"

        errors: list[BaseException] = []
        results: list[tuple[int, ...]] = []
        start = threading.Barrier(self.N_THREADS + 1)
        done = threading.Event()

        def hammer():
            # Per-thread client: separate connections stress the swap.
            local = ServeClient(client.base_url, retries=0)
            try:
                start.wait()
                n = 0
                while n < self.N_REQUESTS or not done.is_set():
                    out = local.assign(
                        probe_d.tolist(), probe_u.tolist()
                    )
                    results.append(tuple(out["tiers"]))
                    n += 1
                    if n >= 10 * self.N_REQUESTS:
                        break  # safety valve if the swapper stalls
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer)
            for _ in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        start.wait()
        try:
            # Swap old -> new -> old -> new while the hammer runs.
            for fit in (new_fit, fitted_a, new_fit):
                registry.register(
                    key, fit, downloads=downs, uploads=ups
                )
                client.reload([key.slug])
        finally:
            done.set()
        for t in threads:
            t.join(timeout=60)
        assert not errors, f"requests failed during swap: {errors[:3]}"
        assert len(results) >= self.N_THREADS * self.N_REQUESTS
        torn = [r for r in results if r not in legal]
        assert not torn, f"mixed-model responses detected: {torn[:3]}"
        # Both generations actually served during the window.
        assert len(set(results)) == 2

    def test_streamed_assign_survives_reload(self, swap_env):
        """The single-tuple path retries once through a closed batcher."""
        _, key, client, _ = swap_env
        client.assign_one(110.0, 5.5)
        client.reload([key.slug])
        tier, label = client.assign_one(110.0, 5.5)
        assert isinstance(tier, int)
        assert label


class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """503s with Retry-After until the configured attempt succeeds."""

    n_failures = 2
    retry_after = "0.01"
    seen: list[str] = []

    def do_POST(self):
        self.__class__.seen.append(self.path)
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        assert body
        if len(self.seen) <= self.n_failures:
            self.send_response(503)
            if self.retry_after is not None:
                self.send_header("Retry-After", self.retry_after)
            self.send_header("Content-Length", "2")
            self.end_headers()
            self.wfile.write(b"{}")
            return
        payload = b'{"tiers": [1], "group_indices": [0], "group_labels": ["T"]}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # quiet
        pass


@pytest.fixture
def flaky_server():
    handler = type(
        "Handler", (_FlakyHandler,), {"seen": [], "n_failures": 2}
    )
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestClient503Retry:
    def test_retries_honor_retry_after(self, flaky_server):
        url, handler = flaky_server
        slept: list[float] = []
        client = ServeClient(url, retries=2, sleep=slept.append)
        out = client.assign([100.0], [10.0])
        assert out["tiers"] == [1]
        assert client.n_retries == 2
        assert slept == [0.01, 0.01]  # the server's Retry-After verbatim
        assert len(handler.seen) == 3

    def test_backoff_doubles_without_retry_after(self, flaky_server):
        url, handler = flaky_server
        handler.retry_after = None
        slept: list[float] = []
        client = ServeClient(
            url, retries=3, backoff_s=0.05, sleep=slept.append
        )
        client.assign([100.0], [10.0])
        assert slept == [0.05, 0.1]  # deterministic exponential, no jitter

    def test_backoff_is_capped(self, flaky_server):
        url, handler = flaky_server
        handler.retry_after = "999"
        slept: list[float] = []
        client = ServeClient(
            url, retries=2, max_backoff_s=1.5, sleep=slept.append
        )
        client.assign([100.0], [10.0])
        assert slept == [1.5, 1.5]

    def test_retries_zero_opts_out(self, flaky_server):
        url, handler = flaky_server
        slept: list[float] = []
        client = ServeClient(url, retries=0, sleep=slept.append)
        with pytest.raises(ServeError) as exc_info:
            client.assign([100.0], [10.0])
        assert exc_info.value.status == 503
        assert slept == []
        assert client.n_retries == 0

    def test_exhausted_retries_surface_the_503(self, flaky_server):
        url, handler = flaky_server
        handler.n_failures = 99
        client = ServeClient(url, retries=1, sleep=lambda _s: None)
        with pytest.raises(ServeError) as exc_info:
            client.assign([100.0], [10.0])
        assert exc_info.value.status == 503
        assert client.n_retries == 1

    def test_retry_counter_moves(self, flaky_server):
        url, _ = flaky_server
        previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
        try:
            client = ServeClient(url, retries=2, sleep=lambda _s: None)
            client.assign([100.0], [10.0])
            counter = obs_metrics.counter("serve.client.retries")
            assert counter.value == 2
        finally:
            obs_metrics.set_registry(previous)
