"""Monitor tests: windowed stats, drift verdicts, disruption detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import use_registry
from repro.obs.window import WindowedMoments
from repro.serve.registry import ModelRegistry
from repro.serve.server import AssignmentService, ServeConfig
from repro.stream.firehose import MeasurementStream
from repro.stream.monitor import GroupStats, StreamMonitor
from repro.stream.run import warmup_and_register


@pytest.fixture(scope="module")
def registered(tmp_path_factory):
    """A registry holding one warmup model plus its source stream spec."""
    registry = ModelRegistry(tmp_path_factory.mktemp("stream-registry"))
    stream = MeasurementStream(
        "ookla", "A", seed=7, events_per_s=500.0, batch_size=128,
        pool_size=1024, diurnal=False,
    )
    record = warmup_and_register(stream, registry)
    return registry, record


def _fresh_stream(**kwargs) -> MeasurementStream:
    defaults = dict(
        vendor="ookla", city="A", seed=7, events_per_s=500.0,
        batch_size=128, pool_size=1024, diurnal=False,
    )
    defaults.update(kwargs)
    return MeasurementStream(**defaults)


class TestWindowedMoments:
    def test_matches_numpy_inside_window(self):
        rng = np.random.default_rng(3)
        moments = WindowedMoments(window_s=60.0)
        values = rng.normal(50.0, 10.0, 900).reshape(9, 100)
        for i, chunk in enumerate(values):
            moments.observe(float(i * 5), chunk)
        n, mean, std = moments.snapshot(40.0)
        flat = values.ravel()
        assert n == flat.size
        assert mean == pytest.approx(float(flat.mean()))
        assert std == pytest.approx(float(flat.std()))

    def test_old_buckets_expire(self):
        moments = WindowedMoments(window_s=60.0)
        moments.observe(0.0, np.full(100, 10.0))
        moments.observe(100.0, np.full(50, 99.0))
        n, mean, _ = moments.snapshot(100.0)
        assert n == 50
        assert mean == pytest.approx(99.0)

    def test_empty_snapshot_is_nan(self):
        n, mean, std = WindowedMoments(60.0).snapshot(0.0)
        assert n == 0
        assert np.isnan(mean) and np.isnan(std)


class TestRefitSampleRing:
    def test_wraparound_keeps_latest_oldest_first(self):
        group = GroupStats("A", "ISP-A", window_s=60.0, cap=8)
        group.sample.push(np.arange(5, dtype=float), np.zeros(5))
        group.sample.push(np.arange(5, 11, dtype=float), np.zeros(6))
        downs, _ = group.sample.pairs()
        np.testing.assert_array_equal(
            downs, np.asarray([3, 4, 5, 6, 7, 8, 9, 10], dtype=float)
        )

    def test_oversize_batch_keeps_tail(self):
        group = GroupStats("A", "ISP-A", window_s=60.0, cap=4)
        group.sample.push(np.arange(10, dtype=float), np.zeros(10))
        downs, _ = group.sample.pairs()
        np.testing.assert_array_equal(downs, [6.0, 7.0, 8.0, 9.0])


class TestVerdicts:
    def test_warming_up_below_min_samples(self, registered):
        registry, record = registered
        monitor = StreamMonitor(registry=registry, min_samples=10_000)
        monitor.observe(_fresh_stream().next_batch())
        (verdict,) = monitor.verdicts()
        assert verdict["model"] == record.key.slug
        assert not verdict["drifted"]
        assert all(
            d["status"] == "warming_up"
            for d in verdict["directions"].values()
        )

    def test_matching_traffic_is_ok(self, registered):
        registry, _ = registered
        monitor = StreamMonitor(
            registry=registry, window_s=30.0, min_samples=200
        )
        stream = _fresh_stream()
        for batch in stream.batches(10):
            monitor.observe(batch)
        (verdict,) = monitor.verdicts()
        assert not verdict["drifted"]
        assert all(
            d["status"] == "ok" for d in verdict["directions"].values()
        )

    def test_scaled_traffic_drifts(self, registered):
        registry, _ = registered
        monitor = StreamMonitor(
            registry=registry, window_s=30.0, min_samples=200
        )
        stream = _fresh_stream()
        for batch in stream.batches(10):
            monitor.observe_arrays(
                batch.city, batch.isp,
                batch.downloads * 0.3, batch.uploads * 0.3,
                t_s=batch.t_s,
            )
        (verdict,) = monitor.verdicts()
        assert verdict["drifted"]
        down = verdict["directions"]["download_mbps"]
        assert down["status"] == "drifted"
        assert down["rel_deviation"] > 0.5
        assert down["n_observed"] >= 200

    def test_group_without_model_reports_nothing(self, registered):
        registry, _ = registered
        monitor = StreamMonitor(registry=registry)
        monitor.observe_arrays(
            "Z", "ISP-Z", np.full(300, 10.0), np.full(300, 1.0), t_s=1.0
        )
        assert monitor.verdicts() == []

    def test_drift_flag_counts_transitions_only(self, registered):
        registry, _ = registered
        monitor = StreamMonitor(
            registry=registry,
            window_s=30.0,
            min_samples=100,
        )
        stream = _fresh_stream()
        for batch in stream.batches(6):
            monitor.observe_arrays(
                batch.city, batch.isp,
                batch.downloads * 0.2, batch.uploads * 0.2,
                t_s=batch.t_s,
            )
        with use_registry() as metrics:
            before = monitor.verdicts()
            again = monitor.verdicts()
        assert before[0]["drifted"] and again[0]["drifted"]
        # Repeated polls do not re-count the same breach.
        assert metrics.counter("stream.drift_flags").value == 1


class TestServeParity:
    def test_serve_window_and_stream_agree(self, registered):
        """One seeded (t, downloads, uploads) sequence, two drift views,
        one row: the same keys and values for the model and every
        direction."""
        registry, record = registered
        window_s, min_samples = 30.0, 150
        now = [0.0]
        service = AssignmentService(
            registry,
            ServeConfig(
                default_city="A",
                metrics_window_s=window_s,
                drift_min_samples=min_samples,
            ),
            clock=lambda: now[0],
        )
        monitor = StreamMonitor(
            registry=registry,
            window_s=window_s,
            min_samples=min_samples,
        )
        key = record.key
        train = record.training_stats
        rng = np.random.default_rng(21)
        seen = set()
        try:
            loaded = service.resolve(key.city, key.isp)
            for step in range(120):
                # Long gaps empty the window; the middle third drifts.
                now[0] += float(rng.choice([0.5, 2.0, 2.0, 45.0]))
                scale = 0.3 if 40 <= step < 80 else 1.0
                n = int(rng.integers(10, 90))
                downs = train["download_mbps"]["mean"] * scale * (
                    rng.lognormal(0.0, 0.3, n)
                )
                ups = train["upload_mbps"]["mean"] * scale * (
                    rng.lognormal(0.0, 0.3, n)
                )
                service._observe(loaded, downs, ups)
                monitor.observe_arrays(
                    key.city, key.isp, downs, ups, t_s=now[0]
                )
                (served,) = service.verdicts()
                (streamed,) = monitor.verdicts()
                assert served == streamed
                seen.update(
                    row["status"] for row in served["directions"].values()
                )
        finally:
            service.close()
        assert seen == {"warming_up", "ok", "drifted"}


class TestRebaseline:
    def test_rebaseline_picks_up_new_registration(self, registered):
        registry, record = registered
        monitor = StreamMonitor(registry=registry)
        first = monitor._baseline("A", record.key.isp)
        assert first is not None
        monitor.rebaseline("A", record.key.isp)
        assert monitor._baseline("A", record.key.isp) == first


class TestDisruptions:
    def test_tier_shift_detected(self):
        monitor = StreamMonitor(window_s=10.0, min_samples=100)
        mixed = np.tile(np.asarray([1, 2, 3, 4]), 100)
        downs = np.full(mixed.size, 50.0)
        monitor.observe_arrays(
            "A", "ISP-A", downs, downs, tiers=mixed, t_s=1.0
        )
        # Long after the mixed window expired, only bottom tiers remain.
        low = np.full(400, 1)
        monitor.observe_arrays(
            "A", "ISP-A", downs, downs, tiers=low, t_s=500.0
        )
        events = monitor.disruptions()
        kinds = {e["kind"] for e in events}
        assert "tier_shift" in kinds
        shift = next(e for e in events if e["kind"] == "tier_shift")
        assert shift["observed_share"] == pytest.approx(0.0)
        assert shift["delta"] < -0.2

    def test_congestion_onset_detected(self):
        monitor = StreamMonitor(window_s=10.0, min_samples=100)
        hours = np.zeros(400, dtype=np.int64)  # all in diurnal bin 0
        monitor.observe_arrays(
            "A", "ISP-A",
            np.full(400, 100.0), np.full(400, 10.0),
            hours=hours, t_s=1.0,
        )
        monitor.observe_arrays(
            "A", "ISP-A",
            np.full(200, 20.0), np.full(200, 2.0),
            hours=hours[:200], t_s=500.0,
        )
        events = monitor.disruptions()
        congestion = next(e for e in events if e["kind"] == "congestion")
        assert congestion["observed_mean"] == pytest.approx(20.0)
        assert congestion["time_bin"] == 0

    def test_disruptions_count_transitions_only(self):
        monitor = StreamMonitor(window_s=10.0, min_samples=100)
        hours = np.zeros(400, dtype=np.int64)
        monitor.observe_arrays(
            "A", "ISP-A", np.full(400, 100.0), np.full(400, 10.0),
            hours=hours, t_s=1.0,
        )
        monitor.observe_arrays(
            "A", "ISP-A", np.full(200, 20.0), np.full(200, 2.0),
            hours=hours[:200], t_s=500.0,
        )
        with use_registry() as metrics:
            first = monitor.disruptions()
            second = monitor.disruptions()
        assert len(first) == len(second) == 1
        assert first[0]["kind"] == "congestion"
        assert metrics.counter("stream.disruptions").value == 1


class TestRecentSample:
    def test_returns_pushed_pairs(self):
        monitor = StreamMonitor(sample_cap=512)
        downs = np.linspace(1.0, 100.0, 300)
        ups = np.linspace(0.1, 10.0, 300)
        monitor.observe_arrays("A", "ISP-A", downs, ups, t_s=1.0)
        got_d, got_u = monitor.recent_sample("A", "ISP-A")
        np.testing.assert_array_equal(got_d, downs)
        np.testing.assert_array_equal(got_u, ups)

    def test_unknown_group_is_empty(self):
        monitor = StreamMonitor()
        downs, ups = monitor.recent_sample("Q", "ISP-Q")
        assert downs.size == 0 and ups.size == 0
