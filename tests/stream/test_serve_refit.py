"""The online lifecycle driven by the serving process itself.

``repro serve --refit`` runs a :class:`RefitScheduler` whose drift
source is the :class:`AssignmentService`: each served row lands in one
window per loaded model, and ``/healthz``, the ``model_drift`` alert and
the scheduler all read the same verdict rows.  Everything runs on an
injected clock.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.bst import BSTModel
from repro.obs.metrics import (
    MetricsRegistry,
    parse_prometheus_text,
    render_prometheus,
    use_registry,
)
from repro.obs.runs import RunLedger
from repro.serve.client import ServeClient
from repro.serve.engine import TierAssigner
from repro.serve.registry import ModelRegistry
from repro.serve.router import build_router
from repro.serve.server import AssignmentService, ServeConfig, ServeServer
from repro.stream.attach import attach_refit
from repro.stream.firehose import MeasurementStream
from repro.stream.run import warmup_and_register
from repro.stream.scheduler import RefitPolicy, RefitScheduler


def _stream() -> MeasurementStream:
    return MeasurementStream(
        "ookla", "A", seed=7, events_per_s=400.0, batch_size=64,
        pool_size=1024, diurnal=False,
    )


class _Recorder:
    """The service as the scheduler sees it, with its inputs recorded."""

    def __init__(self, service: AssignmentService):
        self.service = service
        self.polls: list[list[dict]] = []
        self.samples: list[tuple[np.ndarray, np.ndarray]] = []

    def verdicts(self):
        rows = self.service.verdicts()
        self.polls.append(rows)
        return rows

    def recent_sample(self, city, isp):
        downs, ups = self.service.recent_sample(city, isp)
        self.samples.append((downs.copy(), ups.copy()))
        return downs, ups

    def rebaseline(self, city, isp):
        self.service.rebaseline(city, isp)


@pytest.fixture(scope="module")
def served_lifecycle(tmp_path_factory):
    """Serve drifted traffic over HTTP and poll a scheduler on the service."""
    registry = ModelRegistry(tmp_path_factory.mktemp("serve-refit"))
    stream = _stream()
    record = warmup_and_register(stream, registry)
    now = [0.0]
    # The scheduler writes into the installed registry; the service
    # built under it renders that same registry on /metrics.
    with use_registry(MetricsRegistry(clock=lambda: now[0])):
        return _serve_drifted(registry, stream, record, now)


def _serve_drifted(registry, stream, record, now):
    service = AssignmentService(
        registry,
        ServeConfig(
            default_city="A",
            alert_interval_s=0.0,
            metrics_window_s=20.0,
            drift_min_samples=150,
        ),
        clock=lambda: now[0],
    )
    server = ServeServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}")
    recorder = _Recorder(service)
    scheduler = RefitScheduler(
        registry=registry,
        monitor=recorder,
        policy=RefitPolicy(min_hold_s=2.0, cooldown_s=300.0),
        clock=lambda: now[0],
        ledger_path=None,
    )
    health_rows: list[list[dict]] = []
    refits: list[dict] = []
    probe_d = stream.pool["downloads"][:32] * 0.4
    probe_u = stream.pool["uploads"][:32] * 0.4
    post_assign = post_health = None
    rows_answered = 0
    try:
        for step in range(120):  # 60 s of clock: healthy, then 0.4x
            now[0] += 0.5
            batch = stream.next_batch()
            scale = 1.0 if step < 10 else 0.4
            rows_answered += len(client.assign(
                (batch.downloads * scale).tolist(),
                (batch.uploads * scale).tolist(),
            )["tiers"])
            if step % 2:
                # Same clock instant, no traffic in between: /healthz
                # and the poll must see the same rows.
                health_rows.append(client.healthz()["drift"])
                refits += scheduler.poll()
            if refits and post_assign is None:
                post_assign = client.assign(
                    probe_d.tolist(), probe_u.tolist()
                )
                rows_answered += len(post_assign["tiers"])
                post_health = client.healthz()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return {
        "record": record,
        "stream": stream,
        "recorder": recorder,
        "health_rows": health_rows,
        "refits": refits,
        "probe": (probe_d, probe_u),
        "post_assign": post_assign,
        "post_health": post_health,
        "metrics": render_prometheus(service.metrics),
        "rows_answered": rows_answered,
    }


def test_healthz_and_scheduler_read_the_same_rows(served_lifecycle):
    polls = served_lifecycle["recorder"].polls
    health = served_lifecycle["health_rows"]
    assert len(polls) == len(health) == 60
    for scheduled, served in zip(polls, health):
        assert scheduled == served
    assert any(row["drifted"] for rows in polls for row in rows)


def test_verdict_rows_name_their_pair(served_lifecycle):
    key = served_lifecycle["record"].key
    (row,) = served_lifecycle["recorder"].polls[0]
    assert (row["model"], row["city"], row["isp"]) == (
        key.slug, key.city, key.isp,
    )


def test_exactly_one_refit(served_lifecycle):
    (refit,) = served_lifecycle["refits"]
    record = served_lifecycle["record"]
    assert refit["model"] == record.key.slug
    assert refit["old_digest"] == record.digest
    assert refit["new_digest"] != record.digest
    assert 2.0 <= refit["drift_to_swap_s"] <= 3.0
    assert "stream_refits_total 1" in served_lifecycle["metrics"]


def test_refit_counts_no_served_rows(served_lifecycle):
    """The refit fits and registers on the service's process registry;
    ``serve_assigned_total`` still counts only the rows /assign answered."""
    families = parse_prometheus_text(served_lifecycle["metrics"])
    assert families["serve_assigned_total"] == [
        ({}, served_lifecycle["rows_answered"])
    ]


def test_new_model_starts_warming_up(served_lifecycle):
    refit = served_lifecycle["refits"][0]
    assert served_lifecycle["post_assign"]["model"]["digest"] == (
        refit["new_digest"]
    )
    (row,) = served_lifecycle["post_health"]["drift"]
    assert not row["drifted"]
    assert {d["status"] for d in row["directions"].values()} == {
        "warming_up"
    }
    assert all(d["n_observed"] == 32 for d in row["directions"].values())


def test_post_swap_assignments_match_offline_fit(served_lifecycle):
    (sample,) = served_lifecycle["recorder"].samples
    downs, ups = sample
    assert len(downs) == served_lifecycle["refits"][0]["n_samples"]
    offline = BSTModel(served_lifecycle["stream"].catalog).fit(downs, ups)
    probe_d, probe_u = served_lifecycle["probe"]
    expected = TierAssigner(offline).assign(probe_d, probe_u)
    post = served_lifecycle["post_assign"]
    assert post["tiers"] == expected.tiers.tolist()
    assert post["group_indices"] == expected.group_indices.tolist()


def test_one_assign_writes_each_row_into_one_window(tmp_path):
    registry = ModelRegistry(tmp_path)
    stream = _stream()
    warmup_and_register(stream, registry)
    service = AssignmentService(
        registry, ServeConfig(default_city="A", alert_interval_s=0.0)
    )
    try:
        batch = stream.next_batch()
        service.assign_payload(
            {
                "downloads": batch.downloads.tolist(),
                "uploads": batch.uploads.tolist(),
            }
        )
        (row,) = service.verdicts()
        n = len(batch.downloads)
        assert {d["n_observed"] for d in row["directions"].values()} == {n}
        downs, ups = service.recent_sample("A", row["isp"])
        np.testing.assert_array_equal(downs, batch.downloads)
        np.testing.assert_array_equal(ups, batch.uploads)
        service.rebaseline("A", row["isp"])
        assert service.verdicts() == []
        assert service.recent_sample("A", row["isp"])[0].size == 0
    finally:
        service.close()


def test_attached_scheduler_metrics_reach_the_service(tmp_path):
    """attach_refit: the daemon's refit lands in the service's /metrics."""
    registry = ModelRegistry(tmp_path)
    stream = _stream()
    record = warmup_and_register(stream, registry)
    now = [0.0]
    # The daemon writes into the installed registry, which the service
    # built under it renders.
    with use_registry(MetricsRegistry(clock=lambda: now[0])) as installed:
        service = AssignmentService(
            registry,
            ServeConfig(
                default_city="A", alert_interval_s=0.0,
                refit_interval_s=0.02, refit_ledger=None,
            ),
            clock=lambda: now[0],
        )
        assert service.metrics is installed
        for batch in stream.batches(5):
            service.assign_payload(
                {
                    "downloads": (batch.downloads * 0.3).tolist(),
                    "uploads": (batch.uploads * 0.3).tolist(),
                }
            )
        assert service.verdicts()[0]["drifted"]
        scheduler = attach_refit(service)
        try:
            assert scheduler.clock is service.clock
            deadline = time.monotonic() + 60
            while scheduler.n_refits == 0:
                # Hold the breach past the default 5 s min-hold.
                now[0] = 6.0
                assert time.monotonic() < deadline, "no refit happened"
                time.sleep(0.02)
        finally:
            scheduler.stop()
            service.close()
    assert registry.lookup(record.key).digest != record.digest
    text = render_prometheus(service.metrics)
    assert "stream_refits_total 1" in text
    assert "stream_refit_latency_s_count 1" in text


def test_router_workers_refit_their_own_shards(tmp_path):
    """--workers N --refit: the shard owner's scheduler refits on its own
    served rows, records to the ledger the router passed on, and its
    refit count reaches the router's /metrics."""
    root = tmp_path / "registry"
    stream = _stream()
    record = warmup_and_register(stream, ModelRegistry(root))
    ledger = RunLedger(str(tmp_path / "runs.jsonl"))
    server = build_router(
        root,
        ServeConfig(
            port=0, workers=2, default_city="A",
            refit_interval_s=0.2, refit_ledger=str(ledger.path),
        ),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}", timeout_s=60.0)
    try:
        for batch in stream.batches(5):
            client.assign(
                (batch.downloads * 0.3).tolist(),
                (batch.uploads * 0.3).tolist(),
            )
        deadline = time.monotonic() + 60  # default 5 s min-hold + a fit
        while not ledger.matching(kind="refit"):
            assert time.monotonic() < deadline, "no worker refit"
            time.sleep(0.2)
        series = parse_prometheus_text(client.metrics_text())
        post = client.assign([100.0], [10.0])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
    (manifest,) = ledger.matching(kind="refit")
    assert manifest.params["model"] == record.key.slug
    assert manifest.params["old_digest"] == record.digest
    assert post["model"]["digest"] == manifest.params["new_digest"]
    assert series["stream_refits_total"][0][1] == 1
