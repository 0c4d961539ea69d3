"""Regression tests for the serving-path correctness fixes.

Each test here failed against the pre-fix behaviour: a drift counter
inflated by /healthz polling, a MicroBatcher close race that lost
futures, drift statistics polluted by 400-rejected batches, queue
backpressure surfacing as a generic 500, and a drift verdict blunted by
a lifetime mean, and a batcher result timeout surfacing as a generic
500.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.serve.engine import BatcherClosedError, MicroBatcher, TierAssigner
from repro.serve.registry import ModelRegistry
from repro.serve.server import AssignmentService, ServeConfig, build_server


@pytest.fixture
def registry_a(tmp_path, fitted_a, ookla_a, catalog_a):
    """A one-model registry whose record carries training stats."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.register(
        registry.key_for("A", catalog_a),
        fitted_a,
        downloads=np.asarray(ookla_a["download_mbps"], dtype=float),
        uploads=np.asarray(ookla_a["upload_mbps"], dtype=float),
    )
    return registry


@pytest.fixture
def service(registry_a):
    """A fresh (non-HTTP) assignment service over a one-model registry."""
    svc = AssignmentService(
        registry_a,
        ServeConfig(default_city="A", drift_min_samples=20),
    )
    yield svc
    svc.close()


# ---------------------------------------------------------------------------
# Fix 1: drift counter must count transitions, not polls
# ---------------------------------------------------------------------------
def test_drift_counter_is_poll_stable(service):
    # Push traffic far from the training mean until the model drifts.
    out = service.assign_payload(
        {"downloads": [100_000.0] * 30, "uploads": [90_000.0] * 30}
    )
    assert out["tiers"]
    first = service.verdicts()
    assert any(row["drifted"] for row in first)
    flagged = service.metrics.counter("serve.drift_flags").value
    assert flagged == 1
    # /healthz and the alert evaluator both poll drift_status; polling
    # while the model stays drifted must not move the counter.
    for _ in range(5):
        again = service.verdicts()
        assert any(row["drifted"] for row in again)
    assert service.metrics.counter("serve.drift_flags").value == flagged


# ---------------------------------------------------------------------------
# Fix 2: submit racing close never loses a future
# ---------------------------------------------------------------------------
def test_close_race_loses_no_futures(fitted_a):
    assigner = TierAssigner(fitted_a)
    futures: list[Future] = []
    rejected = 0
    lock = threading.Lock()
    stop = threading.Event()

    batcher = MicroBatcher(assigner, max_batch=16)

    def producer() -> None:
        nonlocal rejected
        while not stop.is_set():
            try:
                fut = batcher.submit(110.0, 5.5, timeout_s=1.0)
            except BatcherClosedError:
                with lock:
                    rejected += 1
                return
            with lock:
                futures.append(fut)

    threads = [threading.Thread(target=producer) for _ in range(8)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let producers overlap the close
    batcher.close()
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    # Every accepted submission resolved; none hangs past close().
    assert futures
    for fut in futures:
        tier, group = fut.result(timeout=5)
        assert isinstance(tier, int) and isinstance(group, int)
    # Post-close submissions fail fast and explicitly.
    with pytest.raises(BatcherClosedError):
        batcher.submit(110.0, 5.5)


def test_assign_one_timeout_is_a_single_budget(fitted_a):
    """Enqueue wait and result wait share one deadline, not two."""

    class _StuckBatcher(MicroBatcher):
        def submit(self, download, upload, timeout_s=None):
            time.sleep(0.3)  # slow enqueue eats into the budget
            return Future()  # never resolves

    batcher = _StuckBatcher(TierAssigner(fitted_a))
    try:
        start = time.monotonic()
        with pytest.raises(FutureTimeoutError):
            batcher.assign_one(110.0, 5.5, timeout_s=0.5)
        elapsed = time.monotonic() - start
        # Pre-fix this waited 0.3s + a full 0.5s result timeout.
        assert elapsed < 0.75
    finally:
        MicroBatcher.close(batcher)


# ---------------------------------------------------------------------------
# Fix 3: rejected batches must not pollute drift statistics
# ---------------------------------------------------------------------------
def test_rejected_batch_leaves_drift_stats_untouched(service):
    service.resolve()

    def n_observed() -> int:
        # Both directions: the NaN-download batch carries 500 finite
        # uploads, which an observed rejection would add.
        (row,) = service.verdicts()
        return sum(d["n_observed"] for d in row["directions"].values())

    before = n_observed()
    with pytest.raises(ValueError):
        service.assign_payload(
            {
                "downloads": [float("nan")] * 500,
                "uploads": [5.5] * 500,
            }
        )
    with pytest.raises(ValueError):
        service.assign_payload(
            {"downloads": [110.0, 120.0], "uploads": [5.5]}
        )
    assert n_observed() == before
    # A valid batch still observes.
    service.assign_payload({"downloads": [110.0], "uploads": [5.5]})
    assert n_observed() == before + 2


# ---------------------------------------------------------------------------
# Fix 4: queue saturation and result timeouts answer a structured 503,
# not a 500
# ---------------------------------------------------------------------------
class _SaturatedBatcher:
    """Stands in for a micro-batcher whose queue never drains."""

    def assign_one(self, download, upload, timeout_s=30.0):
        raise queue.Full

    def close(self) -> None:
        pass


def test_saturated_queue_maps_to_503(tmp_path, fitted_a, ookla_a, catalog_a):
    registry = ModelRegistry(tmp_path / "registry")
    registry.register(registry.key_for("A", catalog_a), fitted_a)
    server = build_server(registry, ServeConfig(port=0, default_city="A"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        loaded = server.service.resolve()
        with loaded.lock:
            loaded.batcher = _SaturatedBatcher()
        body = json.dumps(
            {"downloads": [110.0], "uploads": [5.5], "stream": True}
        ).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}/assign",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        response = excinfo.value
        assert response.code == 503
        assert response.headers.get("Retry-After") == "1"
        payload = json.loads(response.read())
        assert "saturated" in payload["error"]["message"]
        assert payload["error"]["code"] == 503
        assert payload["error"]["trace_id"]
        assert (
            server.service.metrics.counter("serve.queue_rejections").value
            == 1
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class _ShortWaitBatcher(MicroBatcher):
    """A micro-batcher whose callers give up on a result after 0.2 s."""

    def assign_one(self, download, upload, timeout_s=0.2):
        return super().assign_one(download, upload, timeout_s=timeout_s)


def test_batcher_timeout_maps_to_503(tmp_path, fitted_a, catalog_a, gated):
    registry = ModelRegistry(tmp_path / "registry")
    registry.register(registry.key_for("A", catalog_a), fitted_a)
    server = build_server(registry, ServeConfig(port=0, default_city="A"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    held = gated(TierAssigner(fitted_a))
    try:
        loaded = server.service.resolve()
        with loaded.lock:
            # The flush holds the worker until the gate opens, so the
            # request's wait for its result runs out.
            loaded.batcher = _ShortWaitBatcher(held)
        body = json.dumps(
            {"downloads": [110.0], "uploads": [5.5], "stream": True}
        ).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}/assign",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        response = excinfo.value
        assert held.entered.is_set()
        assert response.code == 503
        assert response.headers.get("Retry-After") == "1"
        payload = json.loads(response.read())
        assert "timed out" in payload["error"]["message"]
        assert payload["error"]["code"] == 503
        assert payload["error"]["trace_id"]
        assert (
            server.service.metrics.counter("serve.queue_rejections").value
            == 1
        )
    finally:
        held.gate.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# ---------------------------------------------------------------------------
# Fix 5: drift compares recent traffic, not the lifetime mean
# ---------------------------------------------------------------------------
class _FakeClock:
    """A monotonic clock the test sets by hand."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_drift_is_windowed_not_lifetime(registry_a):
    clock = _FakeClock()
    config = ServeConfig(default_city="A", drift_min_samples=20)
    service = AssignmentService(registry_a, config, clock=clock)
    try:
        train = service.resolve().record.training_stats
        down = train["download_mbps"]["mean"]
        up = train["upload_mbps"]["mean"]
        service.assign_payload(
            {"downloads": [down] * 5_000, "uploads": [up] * 5_000}
        )
        assert not any(row["drifted"] for row in service.verdicts())
        # The good traffic ages out of the window; 20 rows at 20x the
        # training means are then all the window holds.  A lifetime
        # mean would move only ~7.6% and miss the drift.
        clock.t = config.metrics_window_s + 1.0
        service.assign_payload(
            {"downloads": [20 * down] * 20, "uploads": [20 * up] * 20}
        )
        (row,) = service.verdicts()
        assert row["drifted"]
        for direction in ("download_mbps", "upload_mbps"):
            assert row["directions"][direction]["status"] == "drifted"
            assert row["directions"][direction]["n_observed"] == 20
    finally:
        service.close()


def test_drift_needs_min_samples_per_window(registry_a):
    """Slow traffic is never judged: each window holds too few rows."""
    clock = _FakeClock()
    config = ServeConfig(default_city="A", drift_min_samples=20)
    service = AssignmentService(registry_a, config, clock=clock)
    try:
        train = service.resolve().record.training_stats
        down = 20 * train["download_mbps"]["mean"]
        up = 20 * train["upload_mbps"]["mean"]
        # 10 drifted rows per window, 5 windows: 50 rows in all, never
        # 20 inside one window.
        for k in range(5):
            clock.t = k * config.metrics_window_s
            service.assign_payload(
                {"downloads": [down] * 10, "uploads": [up] * 10}
            )
            (row,) = service.verdicts()
            assert not row["drifted"]
            for stats in row["directions"].values():
                assert stats == {"status": "warming_up", "n_observed": 10}
    finally:
        service.close()
