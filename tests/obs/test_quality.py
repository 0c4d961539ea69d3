"""Data-quality monitors on dirty inputs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs.quality import (
    QualityMonitor,
    QualityReport,
    get_quality,
    use_quality,
)


class TestFieldMonitor:
    def test_counts_nan_negative_zero(self):
        monitor = QualityMonitor()
        field = monitor.field("speed")
        field.observe_array(
            [10.0, float("nan"), -3.0, 0.0, float("nan"), 25.0]
        )
        fq = field.snapshot()
        assert fq.count == 6
        assert fq.n_nan == 2
        assert fq.n_negative == 1
        assert fq.n_zero == 1
        assert fq.nan_rate == pytest.approx(2 / 6)
        assert fq.negative_rate == pytest.approx(1 / 6)

    def test_outliers_above_threshold(self):
        monitor = QualityMonitor()
        field = monitor.field("speed", outlier_above=100.0)
        field.observe_array([50.0, 99.0, 101.0, 5000.0])
        fq = field.snapshot()
        assert fq.n_outlier == 2
        assert fq.outlier_rate == pytest.approx(0.5)

    def test_heavy_tail_statistics(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=3.0, sigma=1.2, size=20_000)
        monitor = QualityMonitor()
        field = monitor.field("tail")
        field.observe_array(values)
        fq = field.snapshot()
        # Reservoir percentiles land close to the exact ones.
        assert fq.p50 == pytest.approx(np.percentile(values, 50), rel=0.15)
        assert fq.p99 == pytest.approx(np.percentile(values, 99), rel=0.3)
        assert fq.tail_ratio > 2.0  # lognormal: p99 >> p50
        assert fq.mean == pytest.approx(values.mean(), rel=1e-6)
        assert fq.std == pytest.approx(values.std(), rel=1e-3)

    def test_deterministic_across_monitors(self):
        """Same stream, same reservoir (seeded by field name, not hash())."""
        values = np.linspace(0.0, 1.0, 5_000)
        snaps = []
        for _ in range(2):
            monitor = QualityMonitor()
            field = monitor.field("det")
            field.observe_array(values)
            snaps.append(field.snapshot())
        assert snaps[0].p95 == snaps[1].p95

    def test_streaming_matches_single_shot(self):
        values = np.arange(1.0, 1001.0)
        whole = QualityMonitor()
        whole.field("f").observe_array(values)
        chunked = QualityMonitor()
        for chunk in np.array_split(values, 7):
            chunked.field("f").observe_array(chunk)
        a = whole.field("f").snapshot()
        b = chunked.field("f").snapshot()
        assert a.count == b.count == 1000
        assert a.mean == pytest.approx(b.mean)

    def test_std_survives_a_large_offset(self):
        # sumsq/n - mean**2 cancels catastrophically at this offset; a
        # Chan combine of (n, mean, M2) does not.
        rng = np.random.default_rng(5)
        batches = [1e9 + rng.standard_normal(1_000) for _ in range(10)]
        field = QualityMonitor().field("offset")
        for batch in batches:
            field.observe_array(batch)
        fq = field.snapshot()
        values = np.concatenate(batches)
        assert fq.mean == pytest.approx(values.mean(), rel=1e-15)
        assert fq.std == pytest.approx(values.std(), rel=1e-6)


class TestAssignmentsAndGroups:
    def test_tier_entropy(self):
        monitor = QualityMonitor()
        monitor.observe_assignments(np.array([1, 1, 2, 2]))
        report = monitor.report()
        assert report.n_assignments == 4
        assert report.tier_entropy == pytest.approx(1.0)  # two even tiers
        assert report.tier_entropy_normalized == pytest.approx(1.0)

    def test_degenerate_assignment_entropy_zero(self):
        monitor = QualityMonitor()
        monitor.observe_assignments(np.array([3, 3, 3, 3]))
        report = monitor.report()
        assert report.tier_entropy == 0.0

    def test_unmapped_group_rate(self):
        monitor = QualityMonitor()
        monitor.observe_group_mapping(n_unmapped=2, n_groups=8)
        monitor.observe_group_mapping(n_unmapped=0, n_groups=2)
        report = monitor.report()
        assert report.unmapped_groups == 2
        assert report.total_groups == 10
        assert report.scalars()["quality.unmapped_group_rate"] == (
            pytest.approx(0.2)
        )

    def test_dropped_rows(self):
        monitor = QualityMonitor()
        monitor.observe_dropped_rows(dropped=5, total=100)
        report = monitor.report()
        assert report.dropped_rows == 5
        assert report.total_rows == 100


class TestReport:
    def _dirty_report(self) -> QualityReport:
        monitor = QualityMonitor()
        monitor.field("dl").observe_array(
            [100.0, float("nan"), -1.0, 20_000.0]
        )
        monitor.observe_assignments(np.array([1, 2]))
        return monitor.report()

    def test_round_trip_preserves_nan(self):
        report = self._dirty_report()
        clone = QualityReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone.fields[0].n_nan == 1
        assert clone.fields[0].n_negative == 1
        assert clone.scalars() == pytest.approx(report.scalars(), nan_ok=True)

    def test_scalars_are_finite_floats(self):
        for key, value in self._dirty_report().scalars().items():
            assert key.startswith("quality.")
            assert isinstance(value, float)

    def test_render_mentions_fields(self):
        text = self._dirty_report().render()
        assert "dl" in text
        assert "tier entropy" in text

    def test_publish_metrics_sets_gauges(self):
        from repro.obs import MetricsRegistry

        report = self._dirty_report()
        registry = MetricsRegistry()
        report.publish_metrics(registry)
        snap = registry.snapshot()
        gauges = {
            name for name, entry in snap.items()
            if entry.get("type") == "gauge"
        }
        assert any(name.startswith("quality.") for name in gauges)


class TestNullMonitor:
    def test_disabled_by_default(self):
        monitor = get_quality()
        assert not monitor.enabled
        # Every call is a silent no-op.
        monitor.field("x").observe_array([1.0, float("nan")])
        monitor.observe_assignments(np.array([1]))
        monitor.observe_group_mapping(1, 2)
        monitor.observe_dropped_rows(1, 2)

    def test_use_quality_scopes_activation(self):
        assert not get_quality().enabled
        with use_quality() as monitor:
            assert get_quality() is monitor
            assert monitor.enabled
        assert not get_quality().enabled


class TestPipelineIntegration:
    def test_contextualize_observes_dirty_inputs(self, catalog_a, ookla_a):
        from repro.pipeline.contextualize import contextualize

        table = ookla_a.head(800)
        downloads = np.asarray(
            table["download_mbps"], dtype=float
        ).copy()
        downloads[:5] = np.nan
        dirty = table.with_column("download_mbps", downloads)
        with use_quality() as monitor:
            contextualize(dirty, catalog_a)
        report = monitor.report()
        by_name = {fq.name: fq for fq in report.fields}
        fq = by_name["contextualize.download_mbps"]
        assert fq.n_nan == 5
        assert report.dropped_rows == 5
        assert report.n_assignments == 795

    def test_experiment_result_carries_quality(self):
        from repro.experiments import Scale, run_experiment
        from repro.experiments import data as exp_data

        # Memoised datasets would skip the instrumented generation and
        # contextualisation paths, leaving the report empty.
        exp_data.clear_caches()
        with use_quality():
            result = run_experiment("fig1", scale=Scale.SMALL, seed=0)
        assert result.quality is not None
        assert result.quality.n_assignments > 0
        assert "-- data quality --" in result.render()
