"""Record schemas and shared sampling helpers for the vendor simulators.

The column sets mirror what each real dataset exposes (Section 3):
Ookla's Speedtest Intelligence rows carry QoS metrics plus device/access
metadata; M-Lab NDT rows are direction-specific with IPs and RTT only;
MBA rows add the ground-truth subscription tier.
"""

from __future__ import annotations

import numpy as np

from repro.market.population import categorical_cdf

__all__ = [
    "OOKLA_COLUMNS",
    "MLAB_COLUMNS",
    "MBA_COLUMNS",
    "DIURNAL_BIN_WEIGHTS",
    "sample_test_hour",
    "sample_test_month",
]

# Fraction of tests starting in each 6-hour local bin (00-06, 06-12,
# 12-18, 18-24).  Figure 11: fewest tests overnight, most in the
# afternoon/evening, with little variation across tiers.
DIURNAL_BIN_WEIGHTS = (0.10, 0.25, 0.33, 0.32)
_DIURNAL_CDF = categorical_cdf(DIURNAL_BIN_WEIGHTS)

OOKLA_COLUMNS = (
    "test_id",
    "user_id",
    "city",
    "isp",
    "platform",  # android | ios | desktop-wifi | desktop-ethernet | web
    "origin",  # native | web
    "access",  # wifi | ethernet | unknown (web tests carry no metadata)
    "download_mbps",
    "upload_mbps",
    "latency_ms",
    "month",  # 1-12
    "hour",  # 0-23 local
    "wifi_band_ghz",  # Android only; NaN otherwise
    "rssi_dbm",  # Android only; NaN otherwise
    "memory_gb",  # Android only; NaN otherwise
    "true_tier",  # simulation ground truth -- not in the real dataset
)

MLAB_COLUMNS = (
    "test_id",
    "client_ip",
    "server_ip",
    "asn",
    "city",
    "isp",
    "direction",  # download | upload (NDT records are one-directional)
    "speed_mbps",
    "rtt_ms",
    "timestamp_s",  # seconds since Jan 1 local
    "month",
    "hour",
    "true_tier",  # simulation ground truth -- not in the real dataset
)

MBA_COLUMNS = (
    "unit_id",
    "state",
    "isp",
    "download_mbps",
    "upload_mbps",
    "month",
    "hour",
    "tier",  # ground truth: MBA publishes the subscribed plan
)


def sample_test_hour(rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample ``size`` local test hours from the diurnal profile of
    Figure 11: every 6-hour bin in one ``rng`` call, then every hour
    within its bin in another."""
    bins = _DIURNAL_CDF.searchsorted(rng.random(size), side="right")
    return bins * 6 + rng.integers(0, 6, size)


def sample_test_month(
    rng: np.random.Generator,
    size: int,
    excluded_months: tuple[int, ...] = (),
) -> np.ndarray:
    """Sample ``size`` months 1-12 uniformly in one ``rng`` call,
    skipping ``excluded_months``.

    The MBA 2021 release lacks September and October (Section 3).
    """
    allowed = [m for m in range(1, 13) if m not in excluded_months]
    if not allowed:
        raise ValueError("every month excluded")
    return np.asarray(allowed)[rng.integers(0, len(allowed), size)]
