"""Tests for the local-factor diagnosis analyses."""

import numpy as np
import pytest

from repro.experiments import data
from repro.experiments.base import Scale
from repro.pipeline import (
    access_type_comparison,
    bottleneck_comparison,
    memory_comparison,
    rssi_comparison,
    wifi_band_comparison,
)
from repro.pipeline.diagnosis import (
    MEMORY_BIN_LABELS,
    RSSI_BIN_LABELS,
    rssi_bin_label,
)


class TestRssiBins:
    @pytest.mark.parametrize(
        "rssi,label",
        [
            (-25.0, ">= -30 dBm"),
            (-30.0, ">= -30 dBm"),
            (-40.0, "-50 dBm - -30 dBm"),
            (-50.0, "-50 dBm - -30 dBm"),
            (-60.0, "-70 dBm - -50 dBm"),
            (-75.0, "< -70 dBm"),
        ],
    )
    def test_bin_labels(self, rssi, label):
        assert rssi_bin_label(rssi) == label

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            rssi_bin_label(float("nan"))


class TestComparisons:
    def test_access_split_shapes(self, ookla_ctx_a):
        comparison = access_type_comparison(ookla_ctx_a.table)
        assert set(comparison.groups) == {"WiFi", "Ethernet"}
        shares = comparison.shares()
        assert shares["WiFi"] > 0.8  # WiFi dominates native tests
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_ethernet_beats_wifi(self, ookla_ctx_a):
        medians = access_type_comparison(ookla_ctx_a.table).medians()
        assert medians["Ethernet"] > medians["WiFi"] * 1.5

    def test_band_split(self, ookla_ctx_a):
        comparison = wifi_band_comparison(ookla_ctx_a.table)
        medians = comparison.medians()
        assert medians["5 GHz"] > medians["2.4 GHz"] * 2

    def test_rssi_bins_monotone_overall(self, ookla_ctx_a):
        medians = rssi_comparison(ookla_ctx_a.table).medians()
        assert medians[RSSI_BIN_LABELS[0]] > medians[RSSI_BIN_LABELS[3]]

    def test_rssi_covers_all_bins(self, ookla_ctx_a):
        comparison = rssi_comparison(ookla_ctx_a.table)
        assert set(comparison.groups) == set(RSSI_BIN_LABELS)

    def test_memory_low_bin_capped(self, ookla_ctx_a):
        medians = memory_comparison(ookla_ctx_a.table).medians()
        top_bins = [medians[label] for label in MEMORY_BIN_LABELS[2:]]
        assert medians["< 2 GB"] < min(top_bins)

    def test_bottleneck_majority(self):
        # The ~5k-test fixture's ~450 Android tests are too few for this
        # ratio: it fails on some fixture seeds in 0-9, because the
        # Local-bottleneck cell's median sits between the two modes that
        # within-group tier reassignment makes.  A MEDIUM-scale city
        # (20k tests) holds it on seeds 0-9; the MEDIUM-scale bench
        # asserts the paper's >2x gap.
        table = data.ookla_contextualized("A", Scale.MEDIUM, 0).table
        comparison = bottleneck_comparison(table)
        shares = comparison.shares()
        medians = comparison.medians()
        assert shares["Local-bottleneck"] > 0.5
        assert medians["Best"] > medians["Local-bottleneck"] * 1.3

    def test_counts_and_shares_consistent(self, ookla_ctx_a):
        comparison = bottleneck_comparison(ookla_ctx_a.table)
        counts = comparison.counts()
        shares = comparison.shares()
        total = sum(counts.values())
        for label in counts:
            assert shares[label] == pytest.approx(counts[label] / total)

    def test_group_median_accessor(self, ookla_ctx_a):
        comparison = access_type_comparison(ookla_ctx_a.table)
        assert comparison.group_median("WiFi") == (
            comparison.medians()["WiFi"]
        )

    def test_empty_groups_yield_nan(self):
        from repro.frame import ColumnTable

        table = ColumnTable(
            {
                "origin": ["native"],
                "access": ["wifi"],
                "platform": ["ios"],
                "wifi_band_ghz": [np.nan],
                "rssi_dbm": [np.nan],
                "memory_gb": [np.nan],
                "normalized_download": [0.5],
            }
        )
        comparison = access_type_comparison(table)
        assert np.isnan(comparison.medians()["Ethernet"])
